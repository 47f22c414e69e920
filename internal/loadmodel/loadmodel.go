// Package loadmodel is the spec-driven workload plane for the kvserve
// service: a deterministic generator of production-shaped load
// (heterogeneous client populations, skewed per-client rates, bursty
// interarrival processes, diurnal ramps), a byte-stable JSONL trace
// format with record/replay, the client engine every load against a
// live server goes through (Run: window-paced for a kvgen mix,
// schedule-paced for a trace — one issue rule, see engine.go), and a
// capacity planner that runs the same stream through a discrete-event
// model of the kvserve pipeline, calibrated from a live server's own
// stage histograms (Calibrate).
//
// The package contract is determinism end to end: the same Spec and
// seed produce a byte-identical op stream on every machine, the trace
// encoding of that stream is byte-identical, and the planner's
// prediction for it is a pure function of the stream, the geometry,
// and the calibration constants. That is what lets E17 close the
// observe -> predict -> calibrate loop: predict first, then replay the
// identical stream against a real server and report the error.
package loadmodel

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// Spec is the root of a workload specification. It is deserialized
// from JSON (stdlib only; no YAML) and validated/defaulted by
// ParseSpec. Classes are SLO classes: each owns a client population
// whose ops are tagged with the class name through generation, the
// planner, the runner, and the per-class metrics.
type Spec struct {
	Name     string `json:"name"`
	Seed     uint64 `json:"seed"`     // default 1
	Duration string `json:"duration"` // Go duration, e.g. "2s"; default "2s"

	// Server-side key geometry the spec assumes. Streams/Keys/
	// PreloadSeed must match the kvserve Config (Streams/Keys/Seed) so
	// read ops hit preloaded keys; they also bound the generated key
	// space.
	Streams     int    `json:"streams"`      // default 4
	Keys        int    `json:"keys"`         // preloaded keys per stream; default 2048
	PreloadSeed uint64 `json:"preload_seed"` // default 1

	Classes []ClassSpec `json:"classes"`

	durNs int64 // resolved Duration
}

// ClassSpec is one SLO class: a population of Clients open-loop
// clients that together offer RateOpsS ops/s, split across clients by
// RateSkew, each client emitting ops under Arrival with key choice
// KeyDist and operation mix Mix, the whole class modulated over time
// by Ramp.
type ClassSpec struct {
	Name     string  `json:"name"`     // [A-Za-z0-9_.-]+, unique per spec
	Clients  int     `json:"clients"`  // population size, >= 1
	RateOpsS float64 `json:"rate_ops"` // aggregate offered rate, ops/s

	// RateSkew splits RateOpsS across the population: "uniform"
	// (default), "zipf" (client j gets weight 1/(j+1)^Theta), or
	// "empirical" (Weights, one per client, normalized).
	RateSkew SkewSpec `json:"rate_skew"`

	// Arrival shapes each client's interarrival process at its
	// assigned rate: "poisson" (default), "gamma" (CV > 0; CV > 1 is
	// burstier than Poisson), "weibull" (Shape > 0; Shape < 1 is
	// heavy-tailed), or "fixed" (deterministic spacing).
	Arrival ArrivalSpec `json:"arrival"`

	// KeyDist picks keys for reads/updates: "zipfian" (default,
	// Theta default 0.99), "uniform", or "empirical" (Weights are
	// relative masses over equal-width slices of the key space).
	KeyDist DistSpec `json:"key_dist"`

	// Mix is the operation mix: either a kvgen mix name ("a", "b",
	// "c", "d") or explicit percentages summing to 100.
	Mix MixSpec `json:"mix"`

	// Ramp is a piecewise-linear rate multiplier over the run
	// (diurnal shape). Empty means flat 1.0. Points must be sorted by
	// T; the multiplier holds the first value before the first point
	// and the last value after the last point.
	Ramp []RampPoint `json:"ramp"`

	// ValueBytes is the nominal value size for capacity accounting.
	// The kvserve wire protocol carries fixed 8-byte values, so this
	// does not change the op stream or the planner's cost model; it is
	// carried for spec documentation only. Default 8.
	ValueBytes int `json:"value_bytes"`
}

// SkewSpec configures the per-client rate split.
type SkewSpec struct {
	Kind    string    `json:"kind"`  // "uniform" | "zipf" | "empirical"
	Theta   float64   `json:"theta"` // zipf exponent, default 1.0
	Weights []float64 `json:"weights"`
}

// ArrivalSpec configures the interarrival process.
type ArrivalSpec struct {
	Kind  string  `json:"kind"`  // "poisson" | "gamma" | "weibull" | "fixed"
	CV    float64 `json:"cv"`    // gamma: coefficient of variation
	Shape float64 `json:"shape"` // weibull: shape k
}

// DistSpec configures key choice.
type DistSpec struct {
	Kind    string    `json:"kind"`  // "zipfian" | "uniform" | "empirical"
	Theta   float64   `json:"theta"` // zipfian exponent, default 0.99
	Weights []float64 `json:"weights"`
}

// MixSpec is either a kvgen mix name or explicit percentages.
type MixSpec struct {
	Name    string `json:"name"`
	ReadPct int    `json:"read_pct"`
	UpdPct  int    `json:"update_pct"`
	InsPct  int    `json:"insert_pct"`
}

// RampPoint anchors the rate multiplier X at offset T into the run.
type RampPoint struct {
	T string  `json:"t"` // Go duration offset, e.g. "500ms"
	X float64 `json:"x"` // multiplier, >= 0

	tNs int64
}

// DurationNs returns the resolved run length in nanoseconds.
func (s *Spec) DurationNs() int64 { return s.durNs }

// TotalClients returns the client population size across all classes.
func (s *Spec) TotalClients() int {
	n := 0
	for i := range s.Classes {
		n += s.Classes[i].Clients
	}
	return n
}

// ClassNames returns the class names in spec order.
func (s *Spec) ClassNames() []string {
	names := make([]string, len(s.Classes))
	for i := range s.Classes {
		names[i] = s.Classes[i].Name
	}
	return names
}

// OfferedOpsS returns the aggregate offered rate at multiplier 1.
func (s *Spec) OfferedOpsS() float64 {
	r := 0.0
	for i := range s.Classes {
		r += s.Classes[i].RateOpsS
	}
	return r
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '_' || c == '.' || c == '-':
		default:
			return false
		}
	}
	return true
}

// ParseSpec decodes, defaults, and validates a Spec from JSON.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(newByteReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("loadmodel: spec: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSpec reads a spec file from disk.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseSpec(data)
}

func (s *Spec) validate() error {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Duration == "" {
		s.Duration = "2s"
	}
	d, err := time.ParseDuration(s.Duration)
	if err != nil || d <= 0 {
		return fmt.Errorf("loadmodel: bad duration %q", s.Duration)
	}
	s.durNs = int64(d)
	if s.Streams == 0 {
		s.Streams = 4
	}
	if s.Keys == 0 {
		s.Keys = 2048
	}
	if s.PreloadSeed == 0 {
		s.PreloadSeed = 1
	}
	if s.Streams < 1 || s.Keys < 1 {
		return fmt.Errorf("loadmodel: streams/keys must be >= 1")
	}
	if len(s.Classes) == 0 {
		return fmt.Errorf("loadmodel: spec has no classes")
	}
	seen := make(map[string]bool, len(s.Classes))
	for i := range s.Classes {
		c := &s.Classes[i]
		if !validName(c.Name) {
			return fmt.Errorf("loadmodel: class %d: name %q (want [A-Za-z0-9_.-]+)", i, c.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("loadmodel: duplicate class %q", c.Name)
		}
		seen[c.Name] = true
		if c.Clients < 1 {
			return fmt.Errorf("loadmodel: class %q: clients must be >= 1", c.Name)
		}
		if c.RateOpsS <= 0 {
			return fmt.Errorf("loadmodel: class %q: rate_ops must be > 0", c.Name)
		}
		if c.ValueBytes == 0 {
			c.ValueBytes = 8
		}
		if c.ValueBytes < 0 {
			return fmt.Errorf("loadmodel: class %q: value_bytes must be >= 0", c.Name)
		}
		if err := c.validateSkew(); err != nil {
			return err
		}
		if err := c.validateArrival(); err != nil {
			return err
		}
		if err := c.validateKeyDist(); err != nil {
			return err
		}
		if err := c.resolveMix(); err != nil {
			return err
		}
		if err := c.validateRamp(s.durNs); err != nil {
			return err
		}
	}
	return nil
}

func (c *ClassSpec) validateSkew() error {
	switch c.RateSkew.Kind {
	case "":
		c.RateSkew.Kind = "uniform"
	case "uniform":
	case "zipf":
		if c.RateSkew.Theta == 0 {
			c.RateSkew.Theta = 1.0
		}
		if c.RateSkew.Theta < 0 {
			return fmt.Errorf("loadmodel: class %q: rate_skew.theta must be >= 0", c.Name)
		}
	case "empirical":
		if len(c.RateSkew.Weights) != c.Clients {
			return fmt.Errorf("loadmodel: class %q: rate_skew.weights must have one entry per client (%d != %d)",
				c.Name, len(c.RateSkew.Weights), c.Clients)
		}
		sum := 0.0
		for _, w := range c.RateSkew.Weights {
			if w < 0 {
				return fmt.Errorf("loadmodel: class %q: negative rate_skew weight", c.Name)
			}
			sum += w
		}
		if sum <= 0 {
			return fmt.Errorf("loadmodel: class %q: rate_skew.weights sum to 0", c.Name)
		}
	default:
		return fmt.Errorf("loadmodel: class %q: unknown rate_skew.kind %q", c.Name, c.RateSkew.Kind)
	}
	return nil
}

func (c *ClassSpec) validateArrival() error {
	switch c.Arrival.Kind {
	case "":
		c.Arrival.Kind = "poisson"
	case "poisson", "fixed":
	case "gamma":
		if c.Arrival.CV <= 0 {
			return fmt.Errorf("loadmodel: class %q: arrival.cv must be > 0 for gamma", c.Name)
		}
	case "weibull":
		if c.Arrival.Shape <= 0 {
			return fmt.Errorf("loadmodel: class %q: arrival.shape must be > 0 for weibull", c.Name)
		}
	default:
		return fmt.Errorf("loadmodel: class %q: unknown arrival.kind %q", c.Name, c.Arrival.Kind)
	}
	return nil
}

func (c *ClassSpec) validateKeyDist() error {
	switch c.KeyDist.Kind {
	case "":
		c.KeyDist.Kind = "zipfian"
		if c.KeyDist.Theta == 0 {
			c.KeyDist.Theta = 0.99
		}
	case "zipfian":
		if c.KeyDist.Theta == 0 {
			c.KeyDist.Theta = 0.99
		}
		if c.KeyDist.Theta <= 0 || c.KeyDist.Theta >= 1 {
			return fmt.Errorf("loadmodel: class %q: key_dist.theta must be in (0,1)", c.Name)
		}
	case "uniform":
	case "empirical":
		if len(c.KeyDist.Weights) < 1 {
			return fmt.Errorf("loadmodel: class %q: key_dist.weights is empty", c.Name)
		}
		sum := 0.0
		for _, w := range c.KeyDist.Weights {
			if w < 0 {
				return fmt.Errorf("loadmodel: class %q: negative key_dist weight", c.Name)
			}
			sum += w
		}
		if sum <= 0 {
			return fmt.Errorf("loadmodel: class %q: key_dist.weights sum to 0", c.Name)
		}
	default:
		return fmt.Errorf("loadmodel: class %q: unknown key_dist.kind %q", c.Name, c.KeyDist.Kind)
	}
	return nil
}

func (c *ClassSpec) resolveMix() error {
	m := &c.Mix
	if m.Name == "" && m.ReadPct == 0 && m.UpdPct == 0 && m.InsPct == 0 {
		m.Name = "b" // default: read-heavy
	}
	if m.Name != "" {
		if m.ReadPct != 0 || m.UpdPct != 0 || m.InsPct != 0 {
			return fmt.Errorf("loadmodel: class %q: mix.name and explicit percentages are mutually exclusive", c.Name)
		}
		switch m.Name {
		case "a":
			m.ReadPct, m.UpdPct, m.InsPct = 50, 50, 0
		case "b":
			m.ReadPct, m.UpdPct, m.InsPct = 95, 5, 0
		case "c":
			m.ReadPct, m.UpdPct, m.InsPct = 100, 0, 0
		case "d":
			m.ReadPct, m.UpdPct, m.InsPct = 95, 0, 5
		default:
			return fmt.Errorf("loadmodel: class %q: unknown mix name %q", c.Name, m.Name)
		}
		return nil
	}
	if m.ReadPct < 0 || m.UpdPct < 0 || m.InsPct < 0 ||
		m.ReadPct+m.UpdPct+m.InsPct != 100 {
		return fmt.Errorf("loadmodel: class %q: mix percentages must be >= 0 and sum to 100", c.Name)
	}
	return nil
}

func (c *ClassSpec) validateRamp(durNs int64) error {
	last := int64(-1)
	for i := range c.Ramp {
		p := &c.Ramp[i]
		d, err := time.ParseDuration(p.T)
		if err != nil || d < 0 {
			return fmt.Errorf("loadmodel: class %q: bad ramp time %q", c.Name, p.T)
		}
		p.tNs = int64(d)
		if p.tNs > durNs {
			return fmt.Errorf("loadmodel: class %q: ramp point %q beyond duration", c.Name, p.T)
		}
		if p.tNs <= last {
			return fmt.Errorf("loadmodel: class %q: ramp points must be strictly increasing", c.Name)
		}
		last = p.tNs
		if p.X < 0 {
			return fmt.Errorf("loadmodel: class %q: ramp multiplier must be >= 0", c.Name)
		}
	}
	return nil
}

// clientWeights resolves the per-client rate split to normalized
// weights (len == Clients, sum 1).
func (c *ClassSpec) clientWeights() []float64 {
	w := make([]float64, c.Clients)
	switch c.RateSkew.Kind {
	case "zipf":
		sum := 0.0
		for j := range w {
			w[j] = 1.0 / powF(float64(j+1), c.RateSkew.Theta)
			sum += w[j]
		}
		for j := range w {
			w[j] /= sum
		}
	case "empirical":
		sum := 0.0
		for _, x := range c.RateSkew.Weights {
			sum += x
		}
		for j := range w {
			w[j] = c.RateSkew.Weights[j] / sum
		}
	default: // uniform
		for j := range w {
			w[j] = 1.0 / float64(c.Clients)
		}
	}
	return w
}

// byteReader avoids bytes.NewReader just for the decoder.
type byteReader struct {
	b []byte
	i int
}

func newByteReader(b []byte) *byteReader { return &byteReader{b: b} }

func (r *byteReader) Read(p []byte) (int, error) {
	if r.i >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.i:])
	r.i += n
	return n, nil
}

// rampKnots normalizes a class ramp to knots covering [0, durNs].
func rampKnots(c *ClassSpec, durNs int64) (ts []int64, xs []float64) {
	if len(c.Ramp) == 0 {
		return []int64{0, durNs}, []float64{1, 1}
	}
	// Normalize to knots covering [0, durNs]: hold the first value
	// before the first point and the last value after the last.
	if c.Ramp[0].tNs != 0 {
		ts = append(ts, 0)
		xs = append(xs, c.Ramp[0].X)
	}
	for i := range c.Ramp {
		ts = append(ts, c.Ramp[i].tNs)
		xs = append(xs, c.Ramp[i].X)
	}
	if ts[len(ts)-1] != durNs {
		ts = append(ts, durNs)
		xs = append(xs, xs[len(xs)-1])
	}
	return ts, xs
}

package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"lazyp/internal/kvserve"
	"lazyp/internal/obs"
)

// router.go is the cluster's head: a data-plane proxy speaking the
// kvserve wire protocol on the client side and fanning requests out to
// each key's slot primary, plus the control loop that owns the
// topology epoch — heartbeats, lease-expiry failover, and rejoin
// orchestration.
//
// The proxy is deliberately dumb about durability: it never acks
// anything itself (except pings and frames it could not route at all).
// A put's ack frame originates on the slot primary after the
// cluster-wide ack rule is satisfied and passes through untouched —
// as opaque bytes, not re-framed per op — so inserting the router
// changes where frames travel, never what an ack means. Sequence
// numbers are client-chosen and pass through too. The proxy keeps no
// per-request state: frames that cannot reach a backend at dial time
// are answered StatusOverload locally (nothing was in flight), while
// a backend dying mid-flight fails the client connection fast — the
// client's pending ops error, and a reconnecting client's retries land
// on the promoted primary once the lease flips the slot table.
//
// The control loop is a lease: DefaultLeaseMiss consecutive missed
// heartbeats declare a node dead, which (a) promotes its pair peers to
// primary for its slots and (b) tells those peers — via the topology
// push — to stop counting the dead node's acks and start charging its
// delta buffers. A node that heartbeats again after death re-enters as
// StateSyncing: the router drains every live peer's delta buffer into
// it (POST /cluster/catchup), and only when every buffer reads empty
// does the node return to StateAlive as a follower. Primaries never
// fail back; a rejoined node earns primaries again only if its peer
// dies later.

// RouterConfig configures StartRouter. Membership is static: the ring
// (and therefore every slot's pair) is fixed at start; liveness and
// roles within pairs are what the control loop varies.
type RouterConfig struct {
	// Addr is the client-facing data listen address (kvserve wire
	// protocol; port 0 picks a free port, read back from Router.Addr).
	Addr string
	// CtrlAddr is the router's HTTP address: /cluster/topology,
	// /cluster/status, /healthz, /metrics.
	CtrlAddr string
	// Nodes is the static membership: ID, data Addr, control Ctrl base
	// URL per node. State is ignored on input; Addr may be updated at
	// rejoin from the node's own /healthz report.
	Nodes []NodeInfo

	// VNodes and LoadFactor shape the ring (defaults DefaultVNodes,
	// DefaultLoadFactor).
	VNodes     int
	LoadFactor float64
	// Heartbeat is the probe period (default DefaultHeartbeat);
	// LeaseMiss consecutive failures expire a node's lease (default
	// DefaultLeaseMiss).
	Heartbeat time.Duration
	LeaseMiss int
	// DialTimeout bounds proxy dials to backends (default 1s).
	DialTimeout time.Duration
	// Registry receives the router's metrics (cluster_* series).
	Registry *obs.Registry
	// Tracer receives router_route span events for trace-carrying
	// frames and serves the router's /debug/trace drain. Nil gets a
	// private disabled tracer of 4096 events; enable it (obs.Tracer.
	// Enable) to record.
	Tracer *obs.Tracer
	// Logf, when non-nil, receives control-loop events (failovers,
	// rejoins, pushes).
	Logf func(format string, args ...any)
}

// Router is a running cluster head.
//
// Two topologies live here, and the gap between them is a correctness
// fence. r.adj is the *adjudicated* topology — what the control loop
// last decided (bumpLocked). r.topo is the *routed* topology — what
// the proxy and /cluster/topology clients act on. An epoch moves from
// adjudicated to routed only after every node it marks alive has
// confirmed applying it (push ack or healthz epoch report). Routing
// on an unconfirmed epoch loses acked puts: the proxy would send a
// put to a freshly promoted primary whose replicator still holds the
// old view, where that slot isn't its to replicate — Forward returns
// "not mine", the node acks at RF=1, and no delta entry is ever
// charged for the dead pair peer, so rejoin catch-up has nothing to
// replay. Until the fence commits, clients ride the previous routed
// epoch (requests to the dead primary bounce as Overload and retry),
// which extends the failover blip by one push round-trip but never
// un-promises an ack.
type Router struct {
	cfg   RouterConfig
	pairs [][2]int
	topo  atomic.Pointer[Topology]

	ln   net.Listener
	hsrv *http.Server
	hcl  *http.Client

	mu        sync.Mutex // control-loop state below
	primary   []int      // per slot: current primary node index, -1 when pair fully dead
	state     []string   // per node: StateAlive/StateDead/StateSyncing
	miss      []int      // per node: consecutive missed heartbeats
	addrs     []string   // per node: current data address
	epoch     uint64
	joining   []bool    // per node: rejoin goroutine in flight
	adj       *Topology // adjudicated but possibly not yet routed
	confirmed []uint64  // per node: highest epoch it confirmed applying

	quit chan struct{}
	wg   sync.WaitGroup

	cmu   sync.Mutex // accepted proxy connections, closed by Close
	conns map[net.Conn]struct{}

	reg          *obs.Registry
	tr           *obs.Tracer
	ctRequests   *obs.Counter // cluster_router_requests_total
	ctNoPrimary  *obs.Counter // cluster_router_noprimary_total
	ctBackendRst *obs.Counter // cluster_router_backend_resets_total
	ctProxyBytes *obs.Counter // router_proxy_bytes_total
	ctFailovers  *obs.Counter // cluster_failovers_total
	ctRejoins    *obs.Counter // cluster_rejoins_total
	ctPushes     *obs.Counter // cluster_topology_pushes_total
	gEpoch       *obs.Gauge   // cluster_epoch
	gAlive       *obs.Gauge   // cluster_nodes_alive
	gPrimary     []*obs.Gauge // cluster_slots_primary{node=...}
	gFollower    []*obs.Gauge // cluster_slots_follower{node=...}
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.CtrlAddr == "" {
		c.CtrlAddr = "127.0.0.1:0"
	}
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.LoadFactor < 1 {
		c.LoadFactor = DefaultLoadFactor
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = DefaultHeartbeat
	}
	if c.LeaseMiss <= 0 {
		c.LeaseMiss = DefaultLeaseMiss
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Tracer == nil {
		c.Tracer = obs.NewTracer(4096)
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// StartRouter builds the ring, pushes the initial topology to every
// node (nodes unreachable within the grace window start dead and fail
// over immediately), and starts the proxy and the control loop.
func StartRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: StartRouter needs at least one node")
	}
	ids := make([]string, len(cfg.Nodes))
	for i := range cfg.Nodes {
		ids[i] = cfg.Nodes[i].ID
	}
	pairs, err := BuildPairs(ids, cfg.VNodes, cfg.LoadFactor)
	if err != nil {
		return nil, err
	}

	r := &Router{
		cfg:       cfg,
		pairs:     pairs,
		hcl:       &http.Client{Timeout: 4 * cfg.Heartbeat},
		primary:   make([]int, NumSlots),
		state:     make([]string, len(cfg.Nodes)),
		miss:      make([]int, len(cfg.Nodes)),
		addrs:     make([]string, len(cfg.Nodes)),
		joining:   make([]bool, len(cfg.Nodes)),
		confirmed: make([]uint64, len(cfg.Nodes)),
		quit:      make(chan struct{}),
		conns:     make(map[net.Conn]struct{}),
		reg:       cfg.Registry,
		tr:        cfg.Tracer,
	}
	root := cfg.Registry.Scope()
	r.ctRequests = root.Counter("cluster_router_requests_total")
	r.ctNoPrimary = root.Counter("cluster_router_noprimary_total")
	r.ctBackendRst = root.Counter("cluster_router_backend_resets_total")
	r.ctProxyBytes = root.Counter("router_proxy_bytes_total")
	r.ctFailovers = root.Counter("cluster_failovers_total")
	r.ctRejoins = root.Counter("cluster_rejoins_total")
	r.ctPushes = root.Counter("cluster_topology_pushes_total")
	r.gEpoch = root.Gauge("cluster_epoch")
	r.gAlive = root.Gauge("cluster_nodes_alive")
	for i := range cfg.Nodes {
		sc := cfg.Registry.Scope("node", cfg.Nodes[i].ID)
		r.gPrimary = append(r.gPrimary, sc.Gauge("cluster_slots_primary"))
		r.gFollower = append(r.gFollower, sc.Gauge("cluster_slots_follower"))
	}
	for s := range r.primary {
		r.primary[s] = pairs[s][0]
	}
	for i := range r.state {
		r.state[i] = StateAlive
		r.addrs[i] = cfg.Nodes[i].Addr
	}

	// Initial push: every node must hold epoch 1 before the proxy
	// serves, or a put acked pre-topology would be invisible to the
	// ack rule (local-only, no delta charge). Nodes that stay
	// unreachable through the grace window start dead instead.
	r.mu.Lock()
	r.bumpLocked()
	t := r.adj
	r.mu.Unlock()
	deadline := time.Now().Add(time.Duration(cfg.LeaseMiss) * cfg.Heartbeat * 4)
	pending := make(map[int]bool, len(cfg.Nodes))
	for i := range cfg.Nodes {
		pending[i] = true
	}
	for len(pending) > 0 && time.Now().Before(deadline) {
		for i := range pending {
			if r.pushTo(i, t) == nil {
				r.mu.Lock()
				r.confirmLocked(i, t.Epoch)
				r.mu.Unlock()
				delete(pending, i)
			}
		}
		if len(pending) > 0 {
			time.Sleep(cfg.Heartbeat)
		}
	}
	if len(pending) > 0 {
		r.mu.Lock()
		for i := range pending {
			cfg.Logf("cluster: node %s unreachable at start, beginning dead", cfg.Nodes[i].ID)
			r.failoverLocked(i)
		}
		r.mu.Unlock()
	}

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: router listen %s: %w", cfg.Addr, err)
	}
	r.ln = ln
	hln, err := net.Listen("tcp", cfg.CtrlAddr)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("cluster: router control listen %s: %w", cfg.CtrlAddr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/cluster/topology", http.HandlerFunc(r.handleTopology))
	mux.Handle("/cluster/status", http.HandlerFunc(r.handleStatus))
	mux.Handle("/healthz", http.HandlerFunc(r.handleHealthz))
	mux.Handle("/metrics", obs.MetricsHandler(cfg.Registry))
	mux.Handle("/debug/trace", obs.TraceHandler(r.tr))
	obs.RegisterPprof(mux)
	r.hsrv = &http.Server{Handler: mux}
	go r.hsrv.Serve(hln)
	r.hsrv.Addr = hln.Addr().String()

	r.wg.Add(2)
	go r.acceptLoop()
	go r.controlLoop()
	return r, nil
}

// Addr is the bound data-plane address clients dial.
func (r *Router) Addr() string { return r.ln.Addr().String() }

// CtrlAddr is the bound control-plane HTTP address.
func (r *Router) CtrlAddr() string { return r.hsrv.Addr }

// Topology returns the routed topology, falling back to the latest
// adjudicated epoch before any epoch has cleared the routing fence.
// (The /cluster/topology endpoint never serves the fallback: clients
// may only route on confirmed epochs.)
func (r *Router) Topology() *Topology {
	if t := r.topo.Load(); t != nil {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.adj
}

// Metrics exposes the router's registry.
func (r *Router) Metrics() *obs.Registry { return r.reg }

// Tracer exposes the router's tracer (enable it to record
// router_route span events; /debug/trace drains it).
func (r *Router) Tracer() *obs.Tracer { return r.tr }

// Close stops the proxy and the control loop. Accepted client
// connections are closed too — an idle client must not be able to
// wedge Close in wg.Wait behind a blocked serveClient read.
func (r *Router) Close() error {
	close(r.quit)
	r.ln.Close()
	err := r.hsrv.Close()
	r.cmu.Lock()
	for c := range r.conns {
		c.Close()
	}
	r.conns = nil
	r.cmu.Unlock()
	r.wg.Wait()
	return err
}

// ---------------------------------------------------------------------
// Topology derivation. r.mu held for all *Locked methods.

// bumpLocked rebuilds the published Topology from (pairs, primary,
// state, addrs) at a fresh epoch and updates the ownership gauges.
func (r *Router) bumpLocked() {
	r.epoch++
	t := &Topology{
		Epoch: r.epoch,
		Nodes: make([]NodeInfo, len(r.cfg.Nodes)),
		Slots: make([]SlotAssign, NumSlots),
	}
	alive := 0
	for i := range t.Nodes {
		t.Nodes[i] = r.cfg.Nodes[i]
		t.Nodes[i].Addr = r.addrs[i]
		t.Nodes[i].State = r.state[i]
		if r.state[i] == StateAlive {
			alive++
		}
	}
	nPrim := make([]int, len(t.Nodes))
	nFoll := make([]int, len(t.Nodes))
	for s := 0; s < NumSlots; s++ {
		p := r.primary[s]
		pair := -1
		if p >= 0 {
			if other := r.otherMember(s, p); other >= 0 {
				pair = other
			}
			nPrim[p]++
		}
		foll := -1
		if pair >= 0 && r.state[pair] == StateAlive {
			foll = pair
			nFoll[foll]++
		}
		t.Slots[s] = SlotAssign{Primary: p, Follower: foll, Pair: pair}
	}
	r.adj = t
	r.maybePublishLocked()
	r.gEpoch.Set(int64(r.epoch))
	r.gAlive.Set(int64(alive))
	for i := range t.Nodes {
		r.gPrimary[i].Set(int64(nPrim[i]))
		r.gFollower[i].Set(int64(nFoll[i]))
	}
}

// maybePublishLocked routes the adjudicated epoch once every node it
// marks alive has confirmed applying it — the fence described on
// Router. Publishing early would route puts to primaries that do not
// yet know they are primaries, which acks without charging a delta.
func (r *Router) maybePublishLocked() {
	t := r.adj
	if t == nil {
		return
	}
	if cur := r.topo.Load(); cur != nil && cur.Epoch >= t.Epoch {
		return
	}
	for i := range t.Nodes {
		if t.Nodes[i].State == StateAlive && r.confirmed[i] < t.Epoch {
			return
		}
	}
	r.topo.Store(t)
	r.cfg.Logf("cluster: epoch %d confirmed by all live nodes, routing live", t.Epoch)
}

// confirmLocked records that node i holds epoch (from a push ack or a
// healthz report) and publishes the adjudicated topology if this was
// the last confirmation it was waiting on.
func (r *Router) confirmLocked(i int, epoch uint64) {
	if epoch > r.confirmed[i] {
		r.confirmed[i] = epoch
		r.maybePublishLocked()
	}
}

// confirmPush pushes t to node i and records the confirmation on
// success. Failures are dropped: the heartbeat loop re-pushes any
// node whose reported epoch lags, and the node's healthz epoch report
// confirms applies whose HTTP ack was lost to a timeout.
func (r *Router) confirmPush(i int, t *Topology) {
	if r.pushTo(i, t) != nil {
		return
	}
	r.mu.Lock()
	r.confirmLocked(i, t.Epoch)
	r.mu.Unlock()
}

// otherMember returns the pair member of slot s that is not node, -1
// if the pair has no second member.
func (r *Router) otherMember(s, node int) int {
	if r.pairs[s][0] == node {
		return r.pairs[s][1]
	}
	return r.pairs[s][0]
}

// failoverLocked declares node i dead and promotes its pair peers.
func (r *Router) failoverLocked(i int) {
	r.state[i] = StateDead
	promoted, orphaned := 0, 0
	for s := 0; s < NumSlots; s++ {
		if r.primary[s] != i {
			continue
		}
		other := r.otherMember(s, i)
		if other >= 0 && r.state[other] == StateAlive {
			r.primary[s] = other
			promoted++
		} else {
			r.primary[s] = -1
			orphaned++
		}
	}
	r.ctFailovers.Inc()
	r.bumpLocked()
	r.cfg.Logf("cluster: FAILOVER node=%s epoch=%d promoted=%d orphaned=%d",
		r.cfg.Nodes[i].ID, r.epoch, promoted, orphaned)
	r.pushAllLocked()
}

// adoptLocked moves a heartbeating-again dead node to syncing and
// kicks off the catch-up drain.
func (r *Router) adoptLocked(i int, h Health) {
	r.state[i] = StateSyncing
	r.miss[i] = 0
	if h.Addr != "" {
		r.addrs[i] = h.Addr
	}
	r.bumpLocked()
	r.cfg.Logf("cluster: REJOIN node=%s epoch=%d addr=%s (syncing)", r.cfg.Nodes[i].ID, r.epoch, r.addrs[i])
	r.pushAllLocked()
	if !r.joining[i] {
		r.joining[i] = true
		r.wg.Add(1)
		go r.rejoin(i)
	}
}

// pushAllLocked fans the adjudicated topology out to every reachable
// node; each successful push feeds the routing fence.
func (r *Router) pushAllLocked() {
	t := r.adj
	for i := range r.cfg.Nodes {
		if r.state[i] == StateDead {
			continue
		}
		go r.confirmPush(i, t)
	}
}

// pushTo POSTs t to node i's control endpoint.
func (r *Router) pushTo(i int, t *Topology) error {
	body, _ := json.Marshal(t)
	resp, err := r.hcl.Post(r.cfg.Nodes[i].Ctrl+"/cluster/topology", "application/json",
		bytes.NewReader(body))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: push to %s: HTTP %d", r.cfg.Nodes[i].ID, resp.StatusCode)
	}
	r.ctPushes.Inc()
	return nil
}

// rejoin drains every live peer's delta buffer for node i, then
// reinstates i as a follower (and primary of any orphaned slots it is
// a member of). Runs until the drain converges or i dies again.
func (r *Router) rejoin(i int) {
	defer r.wg.Done()
	id := r.cfg.Nodes[i].ID
	tick := time.NewTicker(r.cfg.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-r.quit:
			r.mu.Lock()
			r.joining[i] = false
			r.mu.Unlock()
			return
		case <-tick.C:
		}
		r.mu.Lock()
		if r.state[i] != StateSyncing {
			r.joining[i] = false
			r.mu.Unlock()
			return
		}
		peers := make([]int, 0, len(r.cfg.Nodes))
		for j := range r.cfg.Nodes {
			if j != i && r.state[j] == StateAlive {
				peers = append(peers, j)
			}
		}
		r.mu.Unlock()

		remaining := 0
		failed := false
		for _, j := range peers {
			rem, err := r.catchupOn(j, id)
			if err != nil {
				failed = true
				continue
			}
			remaining += rem
		}
		if failed || remaining > 0 {
			continue
		}

		r.mu.Lock()
		if r.state[i] == StateSyncing {
			r.state[i] = StateAlive
			reclaimed := 0
			for s := 0; s < NumSlots; s++ {
				if r.primary[s] == -1 && (r.pairs[s][0] == i || r.pairs[s][1] == i) {
					r.primary[s] = i
					reclaimed++
				}
			}
			r.ctRejoins.Inc()
			r.bumpLocked()
			r.cfg.Logf("cluster: REJOINED node=%s epoch=%d reclaimed=%d (follower)", id, r.epoch, reclaimed)
			r.pushAllLocked()
		}
		r.joining[i] = false
		r.mu.Unlock()
		return
	}
}

// catchupOn asks node j to drain its delta buffer for peer id;
// returns the remaining (re-buffered) count.
func (r *Router) catchupOn(j int, id string) (int, error) {
	resp, err := r.hcl.Post(r.cfg.Nodes[j].Ctrl+"/cluster/catchup?peer="+id, "", nil)
	if err != nil {
		return 0, err
	}
	defer func() { io.Copy(io.Discard, resp.Body); resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("cluster: catchup on %s: HTTP %d", r.cfg.Nodes[j].ID, resp.StatusCode)
	}
	var out struct {
		Replayed  int `json:"replayed"`
		Remaining int `json:"remaining"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	return out.Remaining, nil
}

// ---------------------------------------------------------------------
// Control loop: heartbeats and lease expiry.

func (r *Router) controlLoop() {
	defer r.wg.Done()
	tick := time.NewTicker(r.cfg.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-r.quit:
			return
		case <-tick.C:
			r.probeAll()
		}
	}
}

func (r *Router) probeAll() {
	type probe struct {
		ok bool
		h  Health
	}
	results := make([]probe, len(r.cfg.Nodes))
	var wg sync.WaitGroup
	for i := range r.cfg.Nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := r.hcl.Get(r.cfg.Nodes[i].Ctrl + "/healthz")
			if err != nil {
				return
			}
			defer func() { io.Copy(io.Discard, resp.Body); resp.Body.Close() }()
			var h Health
			if json.NewDecoder(resp.Body).Decode(&h) != nil {
				return
			}
			results[i] = probe{ok: resp.StatusCode == http.StatusOK && h.Status == "serving", h: h}
		}(i)
	}
	wg.Wait()

	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.epoch
	for i := range results {
		switch {
		case results[i].ok:
			switch r.state[i] {
			case StateDead:
				r.adoptLocked(i, results[i].h)
			default:
				r.miss[i] = 0
				r.confirmLocked(i, results[i].h.Epoch)
				if results[i].h.Epoch < cur {
					go r.confirmPush(i, r.adj)
				}
			}
		default:
			switch r.state[i] {
			case StateAlive:
				r.miss[i]++
				if r.miss[i] >= r.cfg.LeaseMiss {
					r.failoverLocked(i)
				}
			case StateSyncing:
				r.miss[i]++
				if r.miss[i] >= r.cfg.LeaseMiss {
					r.state[i] = StateDead
					r.bumpLocked()
					r.cfg.Logf("cluster: node %s died again while syncing (epoch %d)", r.cfg.Nodes[i].ID, r.epoch)
					r.pushAllLocked()
				}
			}
		}
	}
}

// ---------------------------------------------------------------------
// Data-plane proxy.

func (r *Router) acceptLoop() {
	defer r.wg.Done()
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return
		}
		r.cmu.Lock()
		if r.conns == nil {
			c.Close()
			r.cmu.Unlock()
			return
		}
		r.conns[c] = struct{}{}
		r.cmu.Unlock()
		r.wg.Add(1)
		go r.serveClient(c)
	}
}

// proxyClient is the client half of one proxied connection: the socket
// plus the write mutex that interleaves whole response frames from
// every backend relay and the local answer path.
type proxyClient struct {
	c   net.Conn
	wmu sync.Mutex
}

// write sends one whole-frame run to the client under the write mutex.
// Dead clients absorb writes silently — the serve loop notices on its
// own read path and tears everything down.
func (pc *proxyClient) write(p []byte) {
	pc.wmu.Lock()
	_, _ = pc.c.Write(p)
	pc.wmu.Unlock()
}

// pbackend is one proxy→node connection, owned by one client conn. The
// client's serve loop is its only writer (synchronous vectored writes,
// so the read buffer the frames point into is reusable the moment the
// write returns); a relay goroutine is its only reader, copying
// whole-frame response runs straight to the client socket. There is no
// per-request state: requests are opaque bytes in flight between two
// sockets.
type pbackend struct {
	addr  string
	conn  net.Conn
	pc    *proxyClient
	dead  atomic.Bool
	bytes *obs.Counter
	rst   *obs.Counter
	wg    *sync.WaitGroup
}

// die poisons the backend mid-flight and fails the client connection
// fast: with no per-request table there is nothing to answer the
// in-flight requests with, so the honest signal is a connection reset —
// the client's pending ops fail, and a reconnecting client retries
// against the post-failover slot table. Dial-time failures never reach
// here; they are answered Overload locally with nothing in flight.
func (b *pbackend) die() {
	if !b.dead.CompareAndSwap(false, true) {
		return
	}
	b.conn.Close()
	b.pc.c.Close()
	b.rst.Inc()
}

// relay pumps response bytes node→client: large reads, whole frames
// out, the (rare) partial frame tail carried to the next read. No
// parsing — a response's only routing is "back to the client".
func (b *pbackend) relay() {
	defer b.wg.Done()
	buf := make([]byte, 1<<16)
	fill := 0
	for {
		n, err := b.conn.Read(buf[fill:])
		if n > 0 {
			fill += n
			if whole := fill - fill%kvserve.RespSize; whole > 0 {
				b.pc.write(buf[:whole])
				b.bytes.Add(uint64(whole))
				fill = copy(buf, buf[whole:fill])
			}
		}
		if err != nil {
			b.die()
			return
		}
	}
}

// proxySeg is one planned run of consecutive request frames sharing a
// destination: node ≥ 0 routes buf[off:end] to that node's backend,
// node < 0 answers each frame locally (ping, no topology, headless
// slot).
type proxySeg struct {
	node     int
	off, end int
}

// frameAt decodes the request header at buf[off:].
func frameAt(buf []byte, off int) (op byte, seq uint32, key, val uint64) {
	return kvserve.DecodeReq((*[kvserve.ReqSize]byte)(buf[off:]))
}

// wholeFrames returns how much of buf planChunk may take: its whole
// frames, less a trailing OpTraceCtx prefix, which is held back for the
// next round — its successor frame decides where it routes, and the
// client wrote the pair in one send, so the successor is already in
// flight.
func wholeFrames(buf []byte) int {
	whole := len(buf) - len(buf)%kvserve.ReqSize
	if whole > 0 {
		if op, _, _, _ := frameAt(buf, whole-kvserve.ReqSize); op == kvserve.OpTraceCtx {
			whole -= kvserve.ReqSize
		}
	}
	return whole
}

// planChunk partitions a run of whole request frames into destination
// segments, appending to segs (reused by the caller — the function
// allocates nothing when capacity suffices). Routing decodes each
// header for its op and key; payload bytes are never touched. A nil
// topology plans everything local. Pings and hellos are always local;
// an OpTraceCtx prefix routes wherever its successor frame routes
// (wholeFrames holds a chunk-trailing prefix back, so the successor is
// in this chunk), which keeps the pair consecutive in one segment —
// fused on the backend's wire exactly as the client sent them. ok =
// false refuses a chunk that holds an OpReplBatch header: its payload is
// not frames, and no backend granted this router FeatRepl.
func planChunk(chunk []byte, t *Topology, segs []proxySeg) (_ []proxySeg, ok bool) {
	route := func(key uint64) int {
		if t != nil {
			if p := t.Slots[SlotOf(key)].Primary; p >= 0 {
				return p
			}
		}
		return -1
	}
	for off := 0; off < len(chunk); off += kvserve.ReqSize {
		node := -1
		switch op, _, key, _ := frameAt(chunk, off); op {
		case kvserve.OpReplBatch:
			return segs, false
		case kvserve.OpPing, kvserve.OpHello:
			// Answered locally: a hello's key field is feature bits,
			// not a routing key, and the router grants for itself.
		case kvserve.OpTraceCtx:
			if nxt := off + kvserve.ReqSize; nxt < len(chunk) {
				op2, _, key2, _ := frameAt(chunk, nxt)
				if op2 != kvserve.OpPing && op2 != kvserve.OpHello && op2 != kvserve.OpTraceCtx {
					node = route(key2)
				}
			}
		default:
			node = route(key)
		}
		if n := len(segs); n > 0 && segs[n-1].node == node && segs[n-1].end == off {
			segs[n-1].end = off + kvserve.ReqSize
		} else {
			segs = append(segs, proxySeg{node: node, off: off, end: off + kvserve.ReqSize})
		}
	}
	return segs, true
}

// serveClient proxies one client connection zero-copy: read a chunk of
// frames, plan destination segments (parsing headers only), then ship
// each backend's segments as one vectored write pointing into the read
// buffer and answer the rest locally. Backend responses relay to the
// client as opaque whole-frame runs. Steady state allocates nothing
// and spends two syscalls per chunk per direction, not per op.
func (r *Router) serveClient(c net.Conn) {
	defer r.wg.Done()
	pc := &proxyClient{c: c}
	var bwg sync.WaitGroup // backend relay goroutines
	backends := make(map[string]*pbackend)
	defer func() {
		for _, b := range backends {
			b.die()
		}
		c.Close()
		bwg.Wait()
		r.cmu.Lock()
		if r.conns != nil {
			delete(r.conns, c)
		}
		r.cmu.Unlock()
	}()

	getBackend := func(addr string) *pbackend {
		if b := backends[addr]; b != nil {
			if !b.dead.Load() {
				return b
			}
			delete(backends, addr)
		}
		conn, err := net.DialTimeout("tcp", addr, r.cfg.DialTimeout)
		if err != nil {
			return nil
		}
		b := &pbackend{
			addr: addr, conn: conn, pc: pc,
			bytes: r.ctProxyBytes, rst: r.ctBackendRst,
			wg: &bwg,
		}
		bwg.Add(1)
		go b.relay()
		backends[addr] = b
		return b
	}

	buf := make([]byte, 1<<16)
	segs := make([]proxySeg, 0, 64)
	iov := make(net.Buffers, 0, 64)
	ans := make([]byte, 0, 64*kvserve.RespSize)
	fill := 0
	for {
		n, err := c.Read(buf[fill:])
		if err != nil && n <= 0 {
			return
		}
		fill += n
		whole := wholeFrames(buf[:fill])
		if whole == 0 {
			continue
		}
		t := r.topo.Load()
		var ok bool
		if segs, ok = planChunk(buf[:whole], t, segs[:0]); !ok {
			return // framing is lost past a payload the router will not route
		}
		r.ctRequests.Add(uint64(whole / kvserve.ReqSize))
		if r.tr.Enabled() {
			ts := time.Now().UnixNano()
			for off := 0; off+kvserve.ReqSize < whole; off += kvserve.ReqSize {
				if op, _, tid, _ := frameAt(buf, off); op == kvserve.OpTraceCtx {
					_, _, key, _ := frameAt(buf, off+kvserve.ReqSize)
					r.tr.Record(obs.EvRouterRoute, -1, ts, tid, key)
				}
			}
		}
		for si := range segs {
			node := segs[si].node
			if node < 0 {
				continue
			}
			// Gather every segment bound for this node into one writev.
			iov = iov[:0]
			for sj := si; sj < len(segs); sj++ {
				if segs[sj].node == node {
					iov = append(iov, buf[segs[sj].off:segs[sj].end])
					if sj > si {
						segs[sj].node = -2 // claimed; skip when the outer loop arrives
					}
				}
			}
			var nb int64
			b := getBackend(t.Nodes[node].Addr)
			if b != nil {
				var werr error
				if nb, werr = iov.WriteTo(b.conn); werr != nil {
					b.die()
					return
				}
				r.ctProxyBytes.Add(uint64(nb))
				continue
			}
			// Dial failed: nothing in flight for these frames, so answer
			// them Overload locally — the client retries, and by then
			// the slot table has moved on. (iov survived WriteTo-less.)
			ans = ans[:0]
			for _, run := range iov {
				for off := 0; off < len(run); off += kvserve.ReqSize {
					op, seq, _, _ := frameAt(run, off)
					if op == kvserve.OpTraceCtx {
						continue // silent prefix: never answered
					}
					r.ctNoPrimary.Inc()
					ans = kvserve.AppendResp(ans, seq, kvserve.StatusOverload, 0)
				}
			}
			pc.write(ans)
		}
		// Local segments: pings and unroutable frames.
		ans = ans[:0]
		for _, sg := range segs {
			if sg.node != -1 {
				continue
			}
			for off := sg.off; off < sg.end; off += kvserve.ReqSize {
				op, seq, feats, _ := frameAt(buf, off)
				if op == kvserve.OpTraceCtx {
					// A prefix whose successor answered locally: drop it
					// silently — forwarding it anywhere would arm a trace
					// on an unrelated frame.
					continue
				}
				if op == kvserve.OpHello && t != nil {
					// The router is the client's protocol peer, so it
					// answers the handshake itself: it speaks the trace
					// extension (prefix fusion above), so it grants
					// FeatTrace regardless of backend vintage — backends
					// accept OpTraceCtx unconditionally. Never FeatRepl.
					ans = kvserve.AppendResp(ans, seq, kvserve.StatusOK, feats&kvserve.FeatTrace)
					continue
				}
				st := kvserve.StatusOverload
				if op == kvserve.OpPing && t != nil {
					// Answered locally — readiness means "the router can
					// route somewhere", not that a specific backend is up.
					for i := range t.Nodes {
						if t.Nodes[i].State == StateAlive {
							st = kvserve.StatusOK
							break
						}
					}
				} else if op != kvserve.OpPing {
					r.ctNoPrimary.Inc()
				}
				ans = kvserve.AppendResp(ans, seq, st, 0)
			}
		}
		if len(ans) > 0 {
			pc.write(ans)
		}
		fill = copy(buf, buf[whole:fill])
		if err != nil {
			return
		}
	}
}

// ---------------------------------------------------------------------
// Router control HTTP.

// handleTopology serves the current topology — the smart-client
// (lpload -topo) bootstrap and refresh endpoint.
func (r *Router) handleTopology(w http.ResponseWriter, req *http.Request) {
	t := r.topo.Load()
	if t == nil {
		http.Error(w, "no routed topology yet", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(t)
}

// handleStatus serves a compact per-node view for humans and smoke
// scripts.
func (r *Router) handleStatus(w http.ResponseWriter, req *http.Request) {
	r.mu.Lock()
	type row struct {
		ID      string `json:"id"`
		Addr    string `json:"addr"`
		State   string `json:"state"`
		Miss    int    `json:"miss"`
		Primary int    `json:"primary_slots"`
	}
	nPrim := make([]int, len(r.cfg.Nodes))
	for s := range r.primary {
		if p := r.primary[s]; p >= 0 {
			nPrim[p]++
		}
	}
	out := struct {
		Epoch uint64 `json:"epoch"`
		Nodes []row  `json:"nodes"`
	}{Epoch: r.epoch}
	for i := range r.cfg.Nodes {
		out.Nodes = append(out.Nodes, row{
			ID: r.cfg.Nodes[i].ID, Addr: r.addrs[i],
			State: r.state[i], Miss: r.miss[i], Primary: nPrim[i],
		})
	}
	r.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	fmt.Fprintln(w, `{"status":"serving","role":"router"}`)
}

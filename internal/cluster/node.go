package cluster

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"

	"lazyp/internal/kvserve"
	"lazyp/internal/obs"
)

// node.go is the clustered lpserve wrapper: one kvserve.Server plus a
// Replicator, tied together by a control-plane HTTP mux the router
// drives. The mux comes up *before* journal-replay recovery starts, so
// /healthz can report "recovering" while the data port is not yet
// accepting — the readiness split that lets the router (and the CI
// smoke script) distinguish a booting node from a dead one.

// NodeConfig configures StartNode.
type NodeConfig struct {
	// ID is the stable node identity; it must match the ID the router
	// was configured with, since ring placement hashes it.
	ID string
	// CtrlAddr is the control-plane listen address (HTTP: /healthz,
	// /cluster/*, /metrics, /debug/trace). Port 0 picks a free port.
	CtrlAddr string
	// Server is the kvserve config; StartNode installs the Replicator
	// as Server.Repl and forces Registry sharing so cluster_* and
	// kvserve_* series come out of one /metrics.
	Server kvserve.Config
	// Repl tunes the replication sessions; Self and Registry are set by
	// StartNode.
	Repl ReplConfig
}

// Node is a running cluster member.
type Node struct {
	ID   string
	srv  *kvserve.Server
	repl *Replicator
	ctrl net.Listener
	hsrv *http.Server
	reg  *obs.Registry

	// ready is 0 while recovering, 1 once the data plane serves.
	ready atomic.Uint32
}

// StartNode boots a cluster member: control mux first (readiness
// "recovering"), then the kvserve server (journal replay + listener),
// then readiness flips to "serving". The node starts with no topology
// — every put is local-only until the router's first push.
func StartNode(cfg NodeConfig) (*Node, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("cluster: NodeConfig.ID is required")
	}
	if cfg.CtrlAddr == "" {
		cfg.CtrlAddr = "127.0.0.1:0"
	}
	reg := cfg.Server.Registry
	if reg == nil {
		reg = obs.NewRegistry()
		cfg.Server.Registry = reg
	}
	cfg.Repl.Self = cfg.ID
	cfg.Repl.Registry = reg
	// One tracer for both halves of the node's pipeline: server stage
	// events and replicator stage_fwd_* events interleave in a single
	// ring, so one /debug/trace drain yields the node's complete view
	// of any traced put.
	if cfg.Server.Tracer == nil {
		cfg.Server.Tracer = obs.NewTracer(obs.DefaultTraceCap)
	}
	cfg.Repl.Tracer = cfg.Server.Tracer
	// The forward window must strictly exceed the commit pipelines'
	// unacked-batch capacity: each sealed-but-unacked batch can hold a
	// window slot (one OpReplBatch run per destination peer) whose
	// Waits only run after the batch flushes, so a window the pipeline
	// can exhaust deadlocks the shard owners against their own
	// flushers. Checked here, with defaults applied on both sides, so
	// a small -repl-window fails loudly instead of wedging.
	cfg.Repl = cfg.Repl.withDefaults()
	if win, batches := cfg.Repl.Window, cfg.Server.PipelineBatches(); win <= batches {
		return nil, fmt.Errorf(
			"cluster: ReplConfig.Window %d must exceed the commit pipelines' unacked-batch capacity %d (Shards × (PipelineDepth+1)): raise the window or shrink the pipeline",
			win, batches)
	}
	repl := NewReplicator(cfg.Repl)
	cfg.Server.Repl = repl

	n := &Node{ID: cfg.ID, repl: repl, reg: reg}

	ln, err := net.Listen("tcp", cfg.CtrlAddr)
	if err != nil {
		repl.Close()
		return nil, fmt.Errorf("cluster: control listen %s: %w", cfg.CtrlAddr, err)
	}
	n.ctrl = ln
	mux := http.NewServeMux()
	mux.Handle("/healthz", http.HandlerFunc(n.handleHealthz))
	mux.Handle("/cluster/topology", http.HandlerFunc(n.handleTopology))
	mux.Handle("/cluster/catchup", http.HandlerFunc(n.handleCatchup))
	mux.Handle("/metrics", obs.MetricsHandler(reg))
	obs.RegisterPprof(mux)
	n.hsrv = &http.Server{Handler: mux}
	go n.hsrv.Serve(ln)

	srv, err := kvserve.New(cfg.Server)
	if err != nil {
		n.hsrv.Close()
		repl.Close()
		return nil, err
	}
	if err := srv.Start(); err != nil {
		srv.Close()
		n.hsrv.Close()
		repl.Close()
		return nil, err
	}
	n.srv = srv
	mux.Handle("/debug/trace", obs.TraceHandler(srv.Tracer()))
	n.ready.Store(1)
	return n, nil
}

// Server exposes the wrapped kvserve server (Addr, RecoveryStats...).
func (n *Node) Server() *kvserve.Server { return n.srv }

// Repl exposes the node's replicator (epoch, delta introspection).
func (n *Node) Repl() *Replicator { return n.repl }

// CtrlAddr is the bound control-plane address.
func (n *Node) CtrlAddr() string { return n.ctrl.Addr().String() }

// Close drains the data plane gracefully, then the control plane.
func (n *Node) Close() error { return n.stop(false) }

// Abort tears the node down without committing the open batch — the
// graceful-but-lossy stop crash tests use for the surviving nodes.
func (n *Node) Abort() error { return n.stop(true) }

func (n *Node) stop(abort bool) error {
	n.ready.Store(0)
	var err error
	if n.srv != nil {
		if abort {
			err = n.srv.Abort()
		} else {
			err = n.srv.Close()
		}
	}
	n.repl.Close()
	n.hsrv.Close()
	return err
}

// Health is the /healthz body.
type Health struct {
	// Status is "recovering" until journal replay finished and the
	// data listener serves, then "serving".
	Status string `json:"status"`
	// Node is the member ID.
	Node string `json:"node"`
	// Epoch is the topology epoch this node last applied (0 = none);
	// the router re-pushes when it lags.
	Epoch uint64 `json:"epoch"`
	// Addr is the data-plane address ("" while recovering).
	Addr string `json:"addr"`
}

func (n *Node) handleHealthz(w http.ResponseWriter, req *http.Request) {
	h := Health{Status: "recovering", Node: n.ID, Epoch: n.repl.Epoch()}
	code := http.StatusServiceUnavailable
	if n.ready.Load() == 1 {
		h.Status = "serving"
		h.Addr = n.srv.Addr()
		code = http.StatusOK
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(h)
}

// handleTopology accepts the router's POSTed Topology and answers the
// currently applied epoch on GET.
func (n *Node) handleTopology(w http.ResponseWriter, req *http.Request) {
	switch req.Method {
	case http.MethodPost:
		var t Topology
		if err := json.NewDecoder(req.Body).Decode(&t); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := n.repl.ApplyTopology(&t); err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		fmt.Fprintf(w, "%d\n", n.repl.Epoch())
	case http.MethodGet:
		fmt.Fprintf(w, "%d\n", n.repl.Epoch())
	default:
		http.Error(w, "topology: GET or POST", http.StatusMethodNotAllowed)
	}
}

// handleCatchup triggers a delta drain into the named peer:
// POST /cluster/catchup?peer=<id>. Responds with the replayed key
// count and the remaining delta length (nonzero when some replays
// degraded and re-buffered; the router retries until it reads 0).
func (n *Node) handleCatchup(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "catchup: POST", http.StatusMethodNotAllowed)
		return
	}
	peer := req.URL.Query().Get("peer")
	if peer == "" {
		http.Error(w, "catchup: peer parameter required", http.StatusBadRequest)
		return
	}
	replayed, err := n.repl.Catchup(peer)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]int{
		"replayed":  replayed,
		"remaining": n.repl.DeltaLen(peer),
	})
}

// Command lprouter fronts a set of clustered lpserve nodes: it speaks
// the kvserve wire protocol to clients, routes each request to its
// key's slot primary over the consistent-hash slot table, and runs the
// cluster control loop — heartbeats, lease-expiry failover, topology
// pushes, and rejoin catch-up orchestration (internal/cluster).
//
// Membership is static and given on the command line: one
// -node id=data-addr=ctrl-url per member. The ring (and every slot's
// replica pair) is a pure function of the sorted node ids, so
// restarting the router — or pointing a smart client (lpload -topo) at
// it — reproduces the same placement.
//
// Usage:
//
//	lprouter -addr 127.0.0.1:7400 -ctrl 127.0.0.1:7500 \
//	  -node n0=127.0.0.1:7411=http://127.0.0.1:7511 \
//	  -node n1=127.0.0.1:7412=http://127.0.0.1:7512 \
//	  -node n2=127.0.0.1:7413=http://127.0.0.1:7513
//
// Control endpoints on -ctrl: /cluster/topology (the smart-client
// bootstrap), /cluster/status, /healthz, /metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"lazyp/internal/cluster"
	"lazyp/internal/obs"
)

type nodeFlags []cluster.NodeInfo

func (n *nodeFlags) String() string { return fmt.Sprintf("%d nodes", len(*n)) }

func (n *nodeFlags) Set(v string) error {
	parts := strings.SplitN(v, "=", 3)
	if len(parts) != 3 || parts[0] == "" || parts[1] == "" || parts[2] == "" {
		return fmt.Errorf("want id=data-addr=ctrl-url, got %q", v)
	}
	*n = append(*n, cluster.NodeInfo{ID: parts[0], Addr: parts[1], Ctrl: strings.TrimSuffix(parts[2], "/")})
	return nil
}

func main() {
	var nodes nodeFlags
	var (
		addr      = flag.String("addr", "127.0.0.1:7400", "client-facing data listen address")
		ctrl      = flag.String("ctrl", "127.0.0.1:7500", "control-plane HTTP listen address")
		heartbeat = flag.Duration("heartbeat", cluster.DefaultHeartbeat, "node health probe period")
		leaseMiss = flag.Int("lease-miss", cluster.DefaultLeaseMiss, "consecutive missed heartbeats before a node's lease expires")
		trace     = flag.Bool("trace", false, "record router_route span events for traced frames (drain via ctrl /debug/trace)")
		traceCap  = flag.Int("tracecap", obs.DefaultTraceCap, "router span tracer ring-buffer capacity")
	)
	flag.Var(&nodes, "node", "cluster member as id=data-addr=ctrl-url (repeatable)")
	flag.Parse()

	if len(nodes) == 0 {
		fmt.Fprintln(os.Stderr, "lprouter: at least one -node required")
		os.Exit(1)
	}
	r, err := cluster.StartRouter(cluster.RouterConfig{
		Addr: *addr, CtrlAddr: *ctrl, Nodes: nodes,
		Heartbeat: *heartbeat, LeaseMiss: *leaseMiss,
		Tracer: obs.NewTracer(*traceCap),
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "lprouter: "+format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "lprouter: %v\n", err)
		os.Exit(1)
	}
	if *trace {
		r.Tracer().Enable(true)
	}
	t := r.Topology()
	alive := 0
	for _, n := range t.Nodes {
		if n.State == cluster.StateAlive {
			alive++
		}
	}
	fmt.Fprintf(os.Stderr, "lprouter: routing %d slots over %d/%d nodes on %s (ctrl http://%s, epoch %d)\n",
		cluster.NumSlots, alive, len(t.Nodes), r.Addr(), r.CtrlAddr(), t.Epoch)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	got := <-sig
	fmt.Fprintf(os.Stderr, "lprouter: %s — shutting down\n", got)
	if err := r.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "lprouter: close: %v\n", err)
	}
}

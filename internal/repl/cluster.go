// Cluster assembly: N machines (one full platform per node, each on
// its own clock lane) joined by a simulated network, with per-node
// labeled metrics in one Registry — the shard.NewLaned idiom lifted
// to replication topology. Torture rounds, benchmarks and tests build
// clusters here so node naming, lane registration and listener layout
// stay consistent: node NAME serves clients, NAME+"/repl" serves the
// shipping stream.
package repl

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/platform"
	"repro/internal/server"
	"repro/internal/simclock"
)

// Node is one machine in a cluster.
type Node struct {
	Name string
	Plat *platform.Platform
	M    *metrics.Counters
}

// Cluster is the shared fabric: parent clock, network, metrics.
type Cluster struct {
	Clock    *simclock.Clock
	Net      *netsim.Network
	Registry *metrics.Registry
	Nodes    []*Node
	byName   map[string]*Node
}

// ReplAddr is the shipping listener's address for a node name.
func ReplAddr(name string) string { return name + "/repl" }

// NewCluster builds one platform per name, each on its own lane of a
// shared parent clock, registered with the network under its name
// (and its repl address) so wire latency charges the node's lane. cfg
// sizes ONE node's hardware; netCfg is the default link fault model.
func NewCluster(cfg platform.Config, netCfg netsim.Config, seed int64, names ...string) (*Cluster, error) {
	c := &Cluster{
		Clock:    simclock.New(),
		Registry: metrics.NewRegistry(),
		byName:   make(map[string]*Node),
	}
	c.Net = netsim.New(c.Clock, netCfg, seed, c.Registry.Counters("net"))
	for _, name := range names {
		lane := c.Clock.NewLane()
		m := c.Registry.Counters(name)
		plat, err := platform.Assemble(cfg, lane, m)
		if err != nil {
			return nil, fmt.Errorf("node %s: %w", name, err)
		}
		node := &Node{Name: name, Plat: plat, M: m}
		c.Nodes = append(c.Nodes, node)
		c.byName[name] = node
		c.Net.Register(name, lane)
		c.Net.Register(ReplAddr(name), lane)
	}
	return c, nil
}

// Node returns the named node.
func (c *Cluster) Node(name string) *Node { return c.byName[name] }

// IsolateNode black-holes BOTH of a node's endpoints (client + repl) —
// the whole machine drops off the network, not just one port.
func (c *Cluster) IsolateNode(name string) {
	c.Net.Isolate(name)
	c.Net.Isolate(ReplAddr(name))
}

// RejoinNode reverses IsolateNode.
func (c *Cluster) RejoinNode(name string) {
	c.Net.Rejoin(name)
	c.Net.Rejoin(ReplAddr(name))
}

// Dialer returns a dialer whose sends originate from the given
// endpoint name (clients register no lane; the network clock times
// their messages unless Register'd).
func (c *Cluster) Dialer(from string) server.Dialer {
	return func(addr string) (netsim.Conn, error) {
		return c.Net.Dial(from, addr)
	}
}

// DefaultDBOptions is the database configuration cluster nodes run:
// NVWAL journaling with the paper's recommended variant, concurrent
// writers for the serving layer's sessions.
func DefaultDBOptions() db.Options {
	return db.Options{
		Journal:    db.JournalNVWAL,
		NVWAL:      core.VariantUHLSDiff(),
		Concurrent: true,
	}
}

// PrimaryNode bundles a serving primary: database, replication,
// front-end server.
type PrimaryNode struct {
	Node *Node
	DB   *db.DB
	Repl *Primary
	Srv  *server.Server
	// lis is closed by Stop itself: the Serve goroutine that hands it
	// to Srv may not have run yet, and a restart on this node must find
	// the name free the moment Stop returns.
	lis netsim.Listener
}

// StartPrimary opens the node's database (creating or recovering it)
// and serves it as a replicating primary at the node's name.
func (c *Cluster) StartPrimary(name string, dbOpts db.Options, popts PrimaryOptions, sopts server.Options) (*PrimaryNode, error) {
	node := c.byName[name]
	if node == nil {
		return nil, fmt.Errorf("repl: unknown node %q", name)
	}
	d, err := db.Open(node.Plat, name+".db", dbOpts)
	if err != nil {
		return nil, err
	}
	return c.serveAsPrimary(node, d, popts, sopts)
}

// ServePromoted serves an already-promoted database (from
// Replica.Promote) as the new primary on its node.
func (c *Cluster) ServePromoted(name string, d *db.DB, popts PrimaryOptions, sopts server.Options) (*PrimaryNode, error) {
	node := c.byName[name]
	if node == nil {
		return nil, fmt.Errorf("repl: unknown node %q", name)
	}
	return c.serveAsPrimary(node, d, popts, sopts)
}

func (c *Cluster) serveAsPrimary(node *Node, d *db.DB, popts PrimaryOptions, sopts server.Options) (*PrimaryNode, error) {
	if popts.Metrics == nil {
		popts.Metrics = node.M
	}
	if popts.Clock == nil {
		// Quarantine's ack-latency EWMA must run on virtual time: over
		// netsim a virtually-slow replica still acks real-time-fast.
		popts.Clock = node.Plat.Clock
	}
	p, err := NewPrimary(d, popts)
	if err != nil {
		_ = d.Close()
		return nil, err
	}
	l, err := c.Net.Listen(node.Name)
	if err != nil {
		p.Close()
		_ = d.Close()
		return nil, err
	}
	sopts.Epoch = popts.Epoch
	if sopts.Clock == nil {
		sopts.Clock = node.Plat.Clock
	}
	if sopts.Pressure == nil {
		sopts.Pressure = d.Pressure
	}
	if sopts.Metrics == nil {
		sopts.Metrics = node.M
	}
	srv := server.New(p, sopts)
	go srv.Serve(l)
	return &PrimaryNode{Node: node, DB: d, Repl: p, Srv: srv, lis: l}, nil
}

// Attach starts shipping from the primary to the named replica.
func (pn *PrimaryNode) Attach(c *Cluster, replicaName string) {
	pn.Repl.AddReplica(ReplAddr(replicaName), c.Dialer(pn.Node.Name))
}

// Stop tears the primary down. abandon skips the closing checkpoint —
// the right call when the node's platform has power-failed.
func (pn *PrimaryNode) Stop(abandon bool) {
	pn.Srv.Close()
	_ = pn.lis.Close()
	pn.Repl.Close()
	if abandon {
		pn.DB.Abandon()
	} else {
		_ = pn.DB.Close()
	}
}

// ReplicaNode bundles a following replica: state, shipping listener,
// read-only front-end.
type ReplicaNode struct {
	Node *Node
	R    *Replica
	Srv  *server.Server
	// lis (reads) and replLis (shipping) are closed by Stop itself, for
	// the reason PrimaryNode.lis is.
	lis, replLis netsim.Listener
}

// StartReplica opens (or re-opens) replica state on the node and
// serves reads at its name, shipping at its repl address.
func (c *Cluster) StartReplica(name string, ropts ReplicaOptions, sopts server.Options) (*ReplicaNode, error) {
	node := c.byName[name]
	if node == nil {
		return nil, fmt.Errorf("repl: unknown node %q", name)
	}
	if ropts.Metrics == nil {
		ropts.Metrics = node.M
	}
	r, err := NewReplica(node.Plat, name+".db", ropts)
	if err != nil {
		return nil, err
	}
	rl, err := c.Net.Listen(ReplAddr(name))
	if err != nil {
		return nil, err
	}
	go r.Serve(rl)
	l, err := c.Net.Listen(name)
	if err != nil {
		r.Close()
		return nil, err
	}
	sopts.Epoch = ropts.Epoch
	sopts.ReadOnly = true
	if sopts.Clock == nil {
		sopts.Clock = node.Plat.Clock
	}
	if sopts.Metrics == nil {
		sopts.Metrics = node.M
	}
	srv := server.New(r, sopts)
	go srv.Serve(l)
	return &ReplicaNode{Node: node, R: r, Srv: srv, lis: l, replLis: rl}, nil
}

// Stop tears the replica down, leaving its state for a later
// StartReplica or Promote.
func (rn *ReplicaNode) Stop() {
	rn.Srv.Close()
	_ = rn.lis.Close()
	rn.R.Close()
	_ = rn.replLis.Close()
}

// WaitCaughtUp polls (real time) until the replica's applied mark
// reaches at least target, or the timeout expires.
func (rn *ReplicaNode) WaitCaughtUp(target int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if rn.R.Applied() >= target {
			return true
		}
		time.Sleep(500 * time.Microsecond)
	}
	return rn.R.Applied() >= target
}

// Package nodesim is the simulated link under the shipped client and the
// shipped node: one server.Node per AS (Nodes, the node table every
// deployment over it shares) on simnet, answering every frame the AS
// receives, and a client.Network per querier AS over which
// client.Cluster itself runs in virtual time — a lookup racing a
// mobility update (§III-D2), a crashed replica's timeout (§III-D3). Every
// lookup of the paper's figures is Lookup's walk on it (figure.go). The
// shipped prober's connections and the nodes' gossip sweeps
// (antientropy.go) ride the same network.
package nodesim

import (
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"strconv"
	"time"

	"dmap/internal/client"
	"dmap/internal/core"
	"dmap/internal/guid"
	"dmap/internal/obs"
	"dmap/internal/server"
	"dmap/internal/simnet"
	"dmap/internal/store"
	"dmap/internal/trace"
	"dmap/internal/wire"
)

// LookupResult reports a completed lookup: Attempts counts the requests
// its walk sent, ServedBy is the answering AS (the querier's own for a
// local answer, -1 if none), Misses the "GUID missing" answers it took.
// Timeouts and Failovers are the client's counts over a Lookup; a Read
// leaves them zero.
type LookupResult struct {
	Entry     store.Entry
	Found     bool
	Latency   simnet.Time
	Attempts  int
	ServedBy  int
	UsedLocal bool

	Misses, Timeouts, Failovers int
}

// DefaultTimeout is the querier's per-attempt timeout.
const DefaultTimeout = simnet.Time(2_000_000) // 2 s

// Deployment is DMap on simnet: a node table's nodes, and the shipped
// client at every querier AS.
type Deployment struct {
	nodes    *Nodes
	net      *simnet.Network
	oracle   simnet.LatencyOracle
	rank     ranker                         // the oracle's own replica ranking, if it has one
	clients  map[int]*client.Cluster        // by querier AS
	reads    map[*simnet.Proc]*LookupResult // the Read on each process; nil: the top level
	sweeps   int                            // GossipSweep calls that ran
	sweeping int                            // gossip sweep processes still running

	figures map[figureKey]*client.Cluster // Lookup's clients
	aimed   *querier                      // their network, aimed by each Lookup
	walk    walk                          // the Lookup in progress
}

// NewDeployment binds nodes' ASs onto a network of their own, with
// oracle's latencies and DefaultTimeout per attempt. Deployments over one
// table share its nodes, each with its own clock.
func NewDeployment(nodes *Nodes, oracle simnet.LatencyOracle) (*Deployment, error) {
	if nodes == nil {
		return nil, fmt.Errorf("nodesim: nil node table")
	}
	net, err := simnet.NewNetwork(simnet.New(), oracle, len(nodes.ases))
	if err != nil {
		return nil, err
	}
	d := &Deployment{
		nodes:   nodes,
		net:     net,
		oracle:  oracle,
		clients: make(map[int]*client.Cluster),
		reads:   make(map[*simnet.Proc]*LookupResult),
		figures: make(map[figureKey]*client.Cluster),
	}
	d.aimed = &querier{d: d}
	d.rank, _ = oracle.(ranker)
	for as := range nodes.ases {
		if err := net.Bind(as, simnet.HandlerFunc(func(_ *simnet.Network, msg simnet.Message) { d.handle(as, msg) })); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Sim returns the scheduler, whose Go runs client calls as processes.
func (d *Deployment) Sim() *simnet.Sim { return d.net.Sim() }

// Network returns the underlying simnet, e.g. to install a
// simnet.FaultPlan under the deployment's traffic.
func (d *Deployment) Network() *simnet.Network { return d.net }

// Node returns AS as's node in the deployment's table, made on first
// use: a server.Node over the AS's store, which answers every frame the
// AS receives.
func (d *Deployment) Node(as int) (*server.Node, error) { return d.nodes.Node(as) }

func (d *Deployment) rtt(a, b int) simnet.Time {
	return d.oracle.OneWay(a, b) + d.oracle.OneWay(b, a)
}

// clientAt returns the shipped client at querier AS src, made on first
// use: one try per replica AS under DefaultTimeout.
func (d *Deployment) clientAt(src int) *client.Cluster {
	if c, ok := d.clients[src]; ok {
		return c
	}
	c := newClient(d.nodes.res, querier{d: d, src: src}, DefaultTimeout, 1)
	d.clients[src] = c
	return c
}

// newClient is a shipped client on the link that places with res and
// tries each replica AS attempts times under timeout, within a budget no
// walk reaches — every try of the K replica ASs, its backoff, and the
// re-ask — so that what ends a walk is §III-D3's.
func newClient(res *core.Resolver, q client.Network, timeout simnet.Time, attempts int) *client.Cluster {
	t := time.Duration(timeout) * time.Microsecond
	c, _ := client.NewWithConfig(res, nil, client.Config{ // res is not nil
		Net: q, Timeout: t, Retry: client.RetryPolicy{MaxAttempts: attempts},
		OpDeadline: time.Duration(res.K()*attempts+1) * (t + client.DefaultMaxBackoff),
	})
	return c
}

// Write stores e from AS src with src's client, after the §III-C local
// copy at src, and returns the placements acknowledged. It returns when
// the last replica has acked or timed out: §V's max-over-K update cost.
func (d *Deployment) Write(src int, e store.Entry) (int, error) {
	if _, _, err := d.local(src, e.GUID, &e); err != nil {
		return 0, err
	}
	return d.clientAt(src).Insert(e)
}

// Read resolves g from AS src with src's client, the §III-C local read
// racing its walk. Finding nothing is a result, not an error.
func (d *Deployment) Read(src int, g guid.GUID) (LookupResult, error) {
	local, held, err := d.local(src, g, nil)
	if err != nil {
		return LookupResult{ServedBy: -1}, err
	}
	return d.read(d.clientAt(src), src, g, local, held)
}

// read runs c's walk for g from src beside the local read, which holds
// local if held, and returns whichever answers first.
func (d *Deployment) read(c *client.Cluster, src int, g guid.GUID, local store.Entry, held bool) (LookupResult, error) {
	start, p := d.Sim().Now(), d.Sim().Running()
	res := &LookupResult{}
	d.reads[p] = res
	defer delete(d.reads, p)
	err := c.LookupInto(g, &res.Entry)
	if res.Latency, res.Found = d.Sim().Now()-start, err == nil; !res.Found {
		res.ServedBy = -1 // not the last AS asked
	}
	if lat := d.rtt(src, src); held && (!res.Found || lat < res.Latency) {
		res.Entry, res.Found, res.Latency, res.ServedBy, res.UsedLocal = local, true, lat, src, true
	}
	if errors.Is(err, client.ErrNotFound) {
		err = nil
	}
	return *res, err
}

// local is the §III-C local copy at AS src, when the table keeps one: a
// write (put non-nil) stores *put there; a read looks g up there beside
// the walk, unless src is inside a crash window — its process is down,
// not only its links.
func (d *Deployment) local(src int, g guid.GUID, put *store.Entry) (e store.Entry, ok bool, err error) {
	if !d.nodes.local {
		return e, false, nil
	}
	st, err := d.nodes.store(src)
	switch {
	case err != nil:
	case put != nil:
		_, err = st.Put(*put)
	case !d.net.NodeDown(src, d.Sim().Now()):
		e, ok = st.Get(g)
	}
	return e, ok, err
}

// frame is a wire frame on the link: a request, or — resp — its reply. A
// request marked miss is answered "GUID missing" (Lookup's draw).
type frame struct {
	r    *reply
	resp bool
	miss bool
	t    wire.MsgType
	body []byte
}

// reply is the client.Reply of a request on the link, or a timer.
type reply struct {
	sim    *simnet.Sim
	waiter *simnet.Proc  // the process parked on it
	read   *LookupResult // the read that sent it, if any
	done   bool
	t      wire.MsgType
	body   []byte
	err    error
}

var errTimeout = &net.OpError{Op: "read", Net: "simnet", Err: os.ErrDeadlineExceeded}

// start sends the request frame (t, payload) from AS src to AS dst and
// returns its reply, which times out after timeout; t = 0, no message
// type, makes a timer. The frame carries a copy of payload: it may
// outlive the timeout, after which the caller reuses the buffer. During a
// Lookup the frame first meets the walk's draw: a dead or lost attempt is
// never delivered.
func (d *Deployment) start(src, dst int, t wire.MsgType, payload []byte, timeout time.Duration) *reply {
	r := &reply{sim: d.Sim()}
	if t != 0 {
		if r.read = d.reads[r.sim.Running()]; r.read != nil {
			r.read.Attempts, r.read.ServedBy = r.read.Attempts+1, dst
		}
		if o := d.walk.draw(dst); o != drop {
			_ = d.net.Send(src, dst, frame{r: r, miss: o == miss, t: t, body: slices.Clone(payload)}) // no such AS: no answer
		}
	}
	_ = r.sim.After(simnet.Time(timeout.Microseconds()), func() { r.answer(0, nil, errTimeout) })
	return r
}

// answer settles r once — a late reply or a spent timer finds it done —
// and wakes the process parked on it.
func (r *reply) answer(t wire.MsgType, body []byte, err error) {
	if !r.done {
		if r.read != nil && t == wire.MsgLookupResp && len(body) > 0 && body[0] == 0 {
			r.read.Misses++
		}
		r.done, r.t, r.body, r.err = true, t, body, err
		if r.waiter != nil {
			r.waiter.Wake()
		}
	}
}

// Wait parks the running process until the reply is in; the top level
// steps the simulator until it is.
func (r *reply) Wait() (wire.MsgType, []byte, error) {
	if p := r.sim.Running(); p != nil && !r.done {
		r.waiter = p
		p.Park()
	}
	for !r.done && r.sim.Step() {
	}
	return r.t, r.body, r.err
}

// querier is the link as AS src sees it, on a virtual clock: the
// client.Network of src's client or, aimed at dst, an obs.ProbeConn.
type querier struct {
	d        *Deployment
	src, dst int
}

func (q querier) Now() time.Time          { return time.UnixMicro(int64(q.d.Sim().Now())) }
func (q querier) Sleep(dur time.Duration) { _, _, _ = q.d.start(q.src, q.src, 0, nil, dur).Wait() }

func (q querier) RTT(as int) (time.Duration, bool) {
	if q.d.rank != nil {
		return time.Duration(q.d.rank.Rank(q.src, as)), true
	}
	return time.Duration(q.d.rtt(q.src, as)) * time.Microsecond, true
}

func (q querier) Start(as int, t wire.MsgType, _ trace.Context, payload []byte, timeout time.Duration) client.Reply {
	return q.d.start(q.src, as, t, payload, timeout)
}

// probeConfig puts the shipped prober (internal/obs) on the link as seen
// from AS src: its clock, and a dialer that reads a target's Addr as its
// AS number. Faults hit probes as they hit protocol traffic, so the
// chaos suite can assert that a partition is VISIBLE to the prober
// before anti-entropy repairs the divergence.
func (d *Deployment) probeConfig(src int, cfg obs.ProberConfig) obs.ProberConfig {
	cfg.Now = querier{d: d, src: src}.Now
	cfg.Dial = func(addr string, _ time.Duration) (obs.ProbeConn, error) {
		dst, err := strconv.Atoi(addr)
		if err != nil || dst < 0 || dst >= len(d.nodes.ases) {
			return nil, fmt.Errorf("nodesim: probe target %q is not an AS of this deployment", addr)
		}
		return querier{d: d, src: src, dst: dst}, nil
	}
	return cfg
}

func (q querier) Close() error { return nil }

// RoundTrip steps the simulator to the reply or the deadline, so it is
// called from a scenario's top level or a simnet process — the prober's
// rounds, the gossip sweeps — never from a handler.
func (q querier) RoundTrip(t wire.MsgType, payload []byte, timeout time.Duration) (wire.MsgType, []byte, error) {
	return q.d.start(q.src, q.dst, t, payload, timeout).Wait()
}

// handle dispatches a frame arriving at AS self: a reply settles its
// request, a request is answered by self's node. A digest page is
// answered under the scope self shares with the sweeper, which only the
// link knows; so is a miss, which leaves the node's store — shared by
// every deployment over the table — as it is. A crashed node needs no check: simnet
// drops every delivery to a node inside a crash window, so its peers time
// out (§III-D3).
func (d *Deployment) handle(self int, msg simnet.Message) {
	f := msg.Payload.(frame)
	if f.resp {
		f.r.answer(f.t, f.body, nil)
		return
	}
	n, _ := d.Node(self) // a bound AS is in range
	answer := frame{r: f.r, resp: true}
	switch {
	case f.miss:
		answer.t, answer.body = wire.MsgLookupResp, []byte{0} // not found
	case f.t == wire.MsgRepairDigest:
		answer.t, answer.body = n.AnswerDigest(f.body, nil, d.scope(n.Store(), msg.From))
	default:
		answer.t, answer.body = n.ServeFrame(f.t, f.body)
	}
	_ = d.net.Send(self, msg.From, answer)
}

package workload

import (
	"fmt"

	"tanoq/internal/network"
	"tanoq/internal/noc"
	"tanoq/internal/sim"
	"tanoq/internal/stats"
	"tanoq/internal/traffic"
)

// ClientConfig parameterizes a closed-loop client population.
type ClientConfig struct {
	// Outstanding is each client's window: the bounded number of
	// requests it may have awaiting replies (>= 1; 0 selects 1).
	Outstanding int
	// ThinkMean is the mean think time in cycles: the geometric gap a
	// client waits after a reply before issuing its next request
	// (support >= 1; 0 or values below 1 issue back-to-back, one cycle
	// after the reply).
	ThinkMean float64
	// Pattern picks each request's destination per client node (nil =
	// uniform over the other nodes).
	Pattern traffic.Pattern
	// ClientNodes lists the nodes hosting clients (nil = every node).
	// Every node still needs a terminal injector spec in the workload —
	// replies are injected at whichever node a request lands on.
	ClientNodes []noc.NodeID
	// RequestFlits and ReplyFlits select the transaction shape (each 0
	// selects the default). The default is read-shaped: 1-flit requests,
	// 4-flit cache-line replies. Write-shaped traffic inverts it — 4-flit
	// write requests into the contended resource, 1-flit completion acks
	// back — which puts the transaction's bandwidth on the request path,
	// where per-client QoS arbitration (not the server's FIFO injection
	// VC) decides who completes work. Only the two modeled packet sizes
	// (1 and 4 flits) are valid.
	RequestFlits int
	ReplyFlits   int
	// StopIssuing, when positive, stops clients from issuing requests
	// whose generation cycle would land at or past it; in-flight round
	// trips still complete, so the network drains (the closed-loop
	// analogue of traffic.Spec.StopAt).
	StopIssuing sim.Cycle
	// Seed derives the controller's private randomness (think times and
	// destination picks), independent of the network's seed.
	Seed uint64
}

// client is one closed-loop client: a window of outstanding requests over
// a private RNG stream and destination picker.
type client struct {
	node        noc.NodeID
	rng         sim.RNG
	dest        traffic.Dest
	outstanding int32
}

// Controller drives a closed-loop client population over a network: it
// owns the delivery hook, issues requests via ScheduleInjection, answers
// delivered requests with replies at the ejection side, credits client
// windows on reply delivery, and accumulates round-trip statistics.
//
// A Controller attaches to exactly one network for one cell; Reset clears
// the attachment, so sweep drivers build a fresh Controller per cell
// (runner.Cell.Setup). All state is engine-thread-local and every client
// wake-up is an engine event, so closed-loop runs are bit-identical
// across worker counts and idle-skip settings.
type Controller struct {
	net *network.Network
	cfg ClientConfig
	// reqClass/repClass are the resolved transaction-shape classes.
	reqClass noc.Class
	repClass noc.Class

	// siByNode maps each node to its terminal injector's index in the
	// workload spec order (-1 = none); clientByNode maps a node to its
	// client index (-1 = no client there).
	siByNode     []int32
	clientByNode []int32
	clients      []client

	// RT accumulates measured round trips (windowed like the network's
	// collector: observations are only charged while it is measuring).
	RT *stats.RoundTrip
	// Issued and Completed count all round trips, un-windowed (drain
	// bookkeeping and tests).
	Issued    int64
	Completed int64
}

// ClientWorkload builds the injector population a closed-loop run needs:
// the terminal injector of every column node, with no open-loop rate —
// all generation is controller-scheduled. (Row injectors stay provisioned
// in the QoS tables but host no sources.)
func ClientWorkload(name string, nodes int) traffic.Workload {
	w := traffic.Workload{Name: name, Nodes: nodes}
	for n := 0; n < nodes; n++ {
		w.Specs = append(w.Specs, traffic.Spec{
			Flow: traffic.FlowOf(noc.NodeID(n), 0),
			Node: noc.NodeID(n),
		})
	}
	return w
}

// NewController builds a controller and attaches it to the network: the
// delivery hook is installed and every client's initial window of
// requests is scheduled (each slot issues after an independent think-time
// draw, so clients ramp up staggered rather than in lockstep). The
// network must have a terminal injector spec at every node.
func NewController(n *network.Network, cfg ClientConfig) (*Controller, error) {
	if cfg.Outstanding <= 0 {
		cfg.Outstanding = 1
	}
	if cfg.Pattern == nil {
		cfg.Pattern = traffic.UniformTraffic()
	}
	reqClass, err := classOfFlits(cfg.RequestFlits, noc.ClassRequest)
	if err != nil {
		return nil, err
	}
	repClass, err := classOfFlits(cfg.ReplyFlits, noc.ClassReply)
	if err != nil {
		return nil, err
	}
	nodes := n.Config().Nodes
	ct := &Controller{
		net:          n,
		cfg:          cfg,
		reqClass:     reqClass,
		repClass:     repClass,
		siByNode:     make([]int32, nodes),
		clientByNode: make([]int32, nodes),
	}
	for i := range ct.siByNode {
		ct.siByNode[i] = -1
		ct.clientByNode[i] = -1
	}
	for i, spec := range n.Config().Workload.Specs {
		if spec.Flow == traffic.FlowOf(spec.Node, 0) {
			ct.siByNode[spec.Node] = int32(i)
		}
	}
	for node, si := range ct.siByNode {
		if si < 0 {
			return nil, fmt.Errorf("workload: closed-loop needs a terminal injector spec at every node; node %d has none", node)
		}
	}
	clientNodes := cfg.ClientNodes
	if clientNodes == nil {
		clientNodes = make([]noc.NodeID, nodes)
		for i := range clientNodes {
			clientNodes[i] = noc.NodeID(i)
		}
	}
	root := sim.NewRNG(cfg.Seed ^ 0x636c6f7365646c70) // "closedlp"
	for _, node := range clientNodes {
		if int(node) < 0 || int(node) >= nodes {
			return nil, fmt.Errorf("workload: client node %d outside column of %d", node, nodes)
		}
		if ct.clientByNode[node] >= 0 {
			return nil, fmt.Errorf("workload: duplicate client at node %d", node)
		}
		dest, err := cfg.Pattern.DestFor(node, nodes)
		if err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
		c := client{node: node, dest: dest}
		root.SplitInto(&c.rng)
		ct.clientByNode[node] = int32(len(ct.clients))
		ct.clients = append(ct.clients, c)
	}
	ct.RT = stats.NewRoundTrip(len(ct.clients))
	n.SetDeliveryHook(ct.onDelivery)
	now := n.Now()
	for ci := range ct.clients {
		for w := 0; w < cfg.Outstanding; w++ {
			// Like the open-loop first arrival, the initial issue lands
			// at gap-1 so a think-free client starts at the current
			// cycle.
			c := &ct.clients[ci]
			ct.issue(int32(ci), now+ct.thinkGap(&c.rng)-1)
		}
	}
	return ct, nil
}

// thinkGap draws one think-time gap (>= 1 cycle; mean ThinkMean).
func (ct *Controller) thinkGap(r *sim.RNG) sim.Cycle {
	if ct.cfg.ThinkMean < 1 {
		return 1
	}
	return sim.Cycle(r.Geometric(1 / ct.cfg.ThinkMean))
}

// issue schedules one request generation at cycle at, unless issuing has
// stopped. The request carries its generation cycle as parent metadata;
// the reply echoes it back, so the round trip is measured without any
// correlation state.
func (ct *Controller) issue(ci int32, at sim.Cycle) {
	if ct.cfg.StopIssuing > 0 && at >= ct.cfg.StopIssuing {
		return
	}
	c := &ct.clients[ci]
	dst := c.dest.Pick(&c.rng)
	ct.net.ScheduleInjection(int(ct.siByNode[c.node]), -1, dst, ct.reqClass, noc.KindRequest, uint64(at), at)
	c.outstanding++
	ct.Issued++
}

// classOfFlits maps a configured packet size to its class (0 keeps def).
func classOfFlits(flits int, def noc.Class) (noc.Class, error) {
	switch flits {
	case 0:
		return def, nil
	case noc.RequestFlits:
		return noc.ClassRequest, nil
	case noc.ReplyFlits:
		return noc.ClassReply, nil
	default:
		return 0, fmt.Errorf("workload: %d-flit packets not modeled (want %d or %d)", flits, noc.RequestFlits, noc.ReplyFlits)
	}
}

// onDelivery is the engine delivery hook: delivered requests trigger a
// same-cycle reply from the ejection side's terminal injector, and
// delivered replies credit the issuing client's window, record the round
// trip, and — after a think-time draw — issue the client's next request.
//
// The reply is charged to the requesting client's flow (d.Flow), not the
// server's: that is the accounting request–reply hardware uses, and it is
// what lets PVC equalize per-client reply bandwidth on the contended path
// back — the mechanism behind QoS moving end-to-end client throughput.
func (ct *Controller) onDelivery(d network.Delivery) {
	switch d.Kind {
	case noc.KindRequest:
		ct.net.ScheduleInjection(int(ct.siByNode[d.Dst]), d.Flow, d.Src, ct.repClass, noc.KindReply, d.Parent, d.At)
	case noc.KindReply:
		ci := ct.clientByNode[d.Dst]
		c := &ct.clients[ci]
		c.outstanding--
		ct.Completed++
		if ct.net.Stats().Measuring() {
			ct.RT.Observe(int(ci), int64(d.At)-int64(d.Parent))
		}
		ct.issue(ci, d.At+ct.thinkGap(&c.rng))
	}
}

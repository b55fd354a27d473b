package shard

import (
	"fmt"
	"maps"
	"net"
	"os/exec"
	"sort"
	"strconv"
	"sync"
	"time"

	"ndlog/internal/netrun"
	"ndlog/internal/val"
)

// Coordinator drives one sharded deployment from a single UDP control
// socket: it assembles the global address book from worker hellos,
// releases the start barrier, detects the fleet's fixpoint from waves of
// idle reports, gathers predicates, re-partitions the live fleet
// (Rebalance), and tears the deployment down. It never touches
// data-plane traffic — tuples travel shard-to-shard directly.
type Coordinator struct {
	m    *Manifest
	conn *net.UDPConn

	mu     sync.Mutex
	shards map[int]*shardState
	reqSeq uint64
	// epoch is the current membership view; it starts at 1 (the
	// manifest's partition) and bumps on every rebalance.
	epoch uint64
	// owner maps every node to the shard currently hosting it;
	// overrides maps migrated nodes to their post-migration data
	// addresses (they shadow the stale hello-book entries).
	owner     map[string]int
	overrides map[string]string
	// xfer collects the state chunks of the release in flight.
	// adoptReq/adoptAddr track the single in-flight adoption
	// (rebalances are single-flight and adoptions within one are
	// serialized), so stray or duplicate acks cannot accumulate state.
	xfer      *xferState
	adoptReq  uint64
	adoptAddr *string
	// gather is the in-flight query, nil between queries. gatherMu
	// serializes Tuples callers: gathers are single-flight.
	gatherMu sync.Mutex
	gather   *gatherState
	// rebalMu serializes Rebalance callers (single-flight, like gathers);
	// Respawn shares it — both reconfigure the fleet.
	rebalMu sync.Mutex
	// mark is the newest report-wave mark: every pong carries it, and a
	// report echoing it was taken after it was raised.
	mark uint64

	cmds map[int]*exec.Cmd // spawned worker processes, by shard ID

	wg   sync.WaitGroup
	stop chan struct{}
}

// shardState is the coordinator's view of one worker process.
type shardState struct {
	id   int
	addr *net.UDPAddr // worker control address (from its last frame)
	book map[string]string

	ready   bool
	started bool
	// readyEpoch / resumedEpoch are the latest epochs the worker has
	// acknowledged installing (ready) and resuming into (resumed).
	readyEpoch   uint64
	resumedEpoch uint64

	// Latest idle report: seq orders reports, mark is the newest wave
	// mark the worker had seen when it took the report, and stats is
	// its runner's counters, the credit (Outstanding) included.
	seq        uint64
	epoch      uint64 // membership view the report was sent under
	mark       uint64
	activity   int64
	stats      netrun.Stats
	lastReport time.Time

	// rederivedReq is the newest rederivation request this worker has
	// acknowledged completing.
	rederivedReq uint64

	bye bool
}

// xferState collects one release's chunked state transfer.
type xferState struct {
	req    uint64
	chunks [][]byte
}

func (x *xferState) complete() bool {
	if x.chunks == nil {
		return false
	}
	for _, ch := range x.chunks {
		if ch == nil {
			return false
		}
	}
	return true
}

// gatherState tracks one in-flight gather. Every (re)query of a shard
// carries a fresh request id and wipes that shard's partial chunks, so
// a merged result is always assembled from whole per-shard snapshots —
// never a mix of chunks from different retries.
type gatherState struct {
	cur    map[int]uint64        // shard → its current request id (≥1)
	chunks map[int][][]val.Tuple // shard → chunk index → tuples
}

// NewCoordinator binds the control socket and starts the receive loop.
// Workers are expected to dial ControlAddr; spawn them with Spawn or
// any other process manager.
func NewCoordinator(m *Manifest) (*Coordinator, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	// Wildcard bind so workers on other machines can reach the control
	// plane (ControlAddr still names loopback for same-host spawns).
	conn, err := net.ListenUDP("udp", &net.UDPAddr{})
	if err != nil {
		return nil, fmt.Errorf("shard: bind coordinator socket: %w", err)
	}
	c := &Coordinator{
		m:         m,
		conn:      conn,
		shards:    map[int]*shardState{},
		epoch:     1,
		owner:     map[string]int{},
		overrides: map[string]string{},
		stop:      make(chan struct{}),
	}
	for i := range m.Shards {
		c.shards[m.Shards[i].ID] = &shardState{id: m.Shards[i].ID}
		for node := range m.Shards[i].Nodes {
			c.owner[node] = m.Shards[i].ID
		}
	}
	c.wg.Add(1)
	go c.serve()
	return c, nil
}

// ControlAddr returns the coordinator's UDP control address as
// reachable from this host (the wildcard bind is reported as loopback).
// Workers on other machines must instead be given an address routable
// from there — the coordinator listens on all interfaces.
func (c *Coordinator) ControlAddr() string {
	a := c.conn.LocalAddr().(*net.UDPAddr)
	if a.IP == nil || a.IP.IsUnspecified() {
		return net.JoinHostPort("127.0.0.1", strconv.Itoa(a.Port))
	}
	return a.String()
}

// Spawn launches one worker process per shard with the command builder
// (typically a re-exec of the current binary carrying WorkerEnv). The
// spawned processes are waited on by Shutdown. If any start fails, the
// workers already started are killed and reaped — each reap bounded by
// killGrace, so a worker stuck before exec cannot hang the error path.
func (c *Coordinator) Spawn(build func(shardID int) *exec.Cmd) error {
	c.cmds = map[int]*exec.Cmd{}
	for i := range c.m.Shards {
		id := c.m.Shards[i].ID
		cmd := build(id)
		if err := cmd.Start(); err != nil {
			for _, started := range c.cmds {
				killWait(started, killGrace)
			}
			c.cmds = nil
			return fmt.Errorf("shard: spawn shard %d: %w", id, err)
		}
		c.cmds[id] = cmd
	}
	return nil
}

// serve is the receive loop: it applies every incoming control frame
// to the coordinator's state and issues the protocol's idempotent
// replies (book for hello, start for ready-once-all-ready).
func (c *Coordinator) serve() {
	defer c.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		c.conn.SetReadDeadline(time.Now().Add(controlRead))
		n, from, err := c.conn.ReadFromUDP(buf)
		select {
		case <-c.stop:
			return
		default:
		}
		if err != nil {
			continue
		}
		f, err := decodeFrame(buf[:n])
		if err != nil {
			continue
		}
		c.apply(f, from)
	}
}

func (c *Coordinator) apply(f frame, from *net.UDPAddr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.shards[f.shard]
	if st == nil { // unknown shard id: ignore
		return
	}
	st.addr = from
	switch f.kind {
	case kindHello:
		st.book = f.book
		// Reply with the merged book once every shard has said hello;
		// the worker retries its hello until then.
		if book := c.mergedBookLocked(); book != nil {
			c.conn.WriteToUDP(encodeFrame(frame{kind: kindBook, epoch: c.epoch, book: book}), from)
		}
	case kindReady:
		st.ready = true
		if f.epoch > st.readyEpoch {
			st.readyEpoch = f.epoch
		}
		if st.started {
			// Late ready retry (our start datagram was lost): re-ack the
			// retrier alone, the barrier has already released.
			c.conn.WriteToUDP(encodeFrame(frame{kind: kindStart}), from)
		} else if c.allReadyLocked() {
			for _, s := range c.shards {
				s.started = true
				c.conn.WriteToUDP(encodeFrame(frame{kind: kindStart}), s.addr)
			}
		}
	case kindIdle:
		if f.seq <= st.seq { // reordered report
			return
		}
		st.seq, st.epoch, st.mark, st.activity, st.stats = f.seq, f.epoch, f.mark, f.activity, f.stats
		st.lastReport = time.Now()
		// Ack with the current wave mark: the worker uses pongs to notice a
		// dead coordinator, and answers a mark it has not seen with a
		// report at once.
		c.conn.WriteToUDP(encodeFrame(frame{kind: kindPong, mark: c.mark}), from)
	case kindState:
		x := c.xfer
		if x == nil || f.req == 0 || x.req != f.req {
			return // no release in flight, or a superseded retry's chunk
		}
		if x.chunks == nil {
			x.chunks = make([][]byte, f.nchunks)
		}
		if f.chunk < len(x.chunks) && x.chunks[f.chunk] == nil {
			ch := f.blob
			if ch == nil {
				ch = []byte{}
			}
			x.chunks[f.chunk] = ch
		}
	case kindAdopted:
		if f.req != 0 && f.req == c.adoptReq && c.adoptAddr == nil {
			addr := f.addr
			c.adoptAddr = &addr
		}
	case kindResumed:
		if f.epoch > st.resumedEpoch {
			st.resumedEpoch = f.epoch
		}
	case kindRederived:
		if f.req > st.rederivedReq {
			st.rederivedReq = f.req
		}
	case kindTuples:
		g := c.gather
		if g == nil || f.req == 0 || g.cur[f.shard] != f.req {
			return // no gather in flight, or a superseded retry's chunk
		}
		if g.chunks[f.shard] == nil {
			g.chunks[f.shard] = make([][]val.Tuple, f.nchunks)
		}
		if f.chunk < len(g.chunks[f.shard]) && g.chunks[f.shard][f.chunk] == nil {
			ts := f.tuples
			if ts == nil {
				ts = []val.Tuple{}
			}
			g.chunks[f.shard][f.chunk] = ts
		}
	case kindBye:
		st.bye = true
		st.stats = f.stats
	}
}

// mergedBookLocked merges every shard's hello book (nil if a hello is
// still missing), with migration overrides shadowing the original
// entries of nodes that have since moved.
func (c *Coordinator) mergedBookLocked() map[string]string {
	book := map[string]string{}
	for _, s := range c.shards {
		if s.book == nil {
			return nil
		}
		for k, v := range s.book {
			book[k] = v
		}
	}
	for k, v := range c.overrides {
		book[k] = v
	}
	return book
}

func (c *Coordinator) allReadyLocked() bool {
	for _, s := range c.shards {
		if !s.ready {
			return false
		}
	}
	return true
}

// WaitReady blocks until every shard has completed the handshake and
// the start barrier has been released.
func (c *Coordinator) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		started := true
		for _, s := range c.shards {
			started = started && s.started
		}
		c.mu.Unlock()
		if started {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.mu.Lock()
	missing := 0
	for _, s := range c.shards {
		if !s.started {
			missing++
		}
	}
	c.mu.Unlock()
	return fmt.Errorf("shard: %d of %d shards not ready after %v", missing, len(c.shards), timeout)
}

// WaitQuiescent blocks until the whole deployment has reached its
// fixpoint, or until timeout; it reports which. It takes report waves —
// raise the wave mark, pong it to every shard, wait until each has
// answered with a report echoing it — and returns once two consecutive
// waves show every shard in the current epoch at zero credit with its
// activity counter unchanged: the four-counter argument of DESIGN.md
// §16. A fleet at rest answers two waves in about 10 ms.
func (c *Coordinator) WaitQuiescent(timeout time.Duration) bool {
	type report struct {
		epoch    uint64
		activity int64
	}
	deadline := time.Now().Add(timeout)
	var prev map[int]report // the last wave, if every shard was current and at zero credit
	for {
		c.mu.Lock()
		c.mark++
		mark := c.mark
		c.mu.Unlock()
		err := c.broadcastUntil(frame{kind: kindPong, mark: mark}, deadline,
			func(s *shardState) bool { return s.mark >= mark })
		if err != nil {
			return false
		}
		c.mu.Lock()
		wave := make(map[int]report, len(c.shards))
		for id, s := range c.shards {
			if s.epoch != c.epoch || s.stats.Outstanding != 0 {
				wave = nil
				break
			}
			wave[id] = report{s.epoch, s.activity}
		}
		c.mu.Unlock()
		if prev != nil && maps.Equal(prev, wave) {
			return true
		}
		prev = wave
	}
}

// DeadWorkers reports the shards presumed crashed: started workers
// whose periodic idle reports (one per idlePeriod) have stopped for the
// silence window. On loopback/LAN a multi-hundred-millisecond silence
// means the process is gone, not slow.
func (c *Coordinator) DeadWorkers(silence time.Duration) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	var out []int
	for id, s := range c.shards {
		if !s.started || s.bye || s.lastReport.IsZero() {
			continue
		}
		if now.Sub(s.lastReport) > silence {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// Respawn replaces a crashed worker process and drives its warm rejoin:
//
//  1. reap — the old process (if spawned here) is killed and waited on;
//  2. re-exec — build spawns the replacement, which recovers its node
//     set and per-node state from the shard's durable data directory
//     (manifest DataDir: snapshot + WAL replay), binds fresh sockets,
//     and re-enters the handshake (its ready is re-acked with an
//     immediate start — the barrier released long ago);
//  3. cutover — a new epoch's book routes the respawned nodes' fresh
//     addresses fleet-wide and fences stragglers aimed at the dead
//     sockets;
//  4. rederive — every shard re-sends the derivations homed at the
//     respawned nodes (the cross-node derived state a WAL cannot
//     carry), and the respawned shard sweeps its own derivations back
//     outward: WAL-before-wire means a crash cannot have advertised
//     state it will not remember, but it can remember state it never
//     got to advertise.
//
// The cutover's new epoch drops the frames the crash stranded, with
// their credit; the sweeps re-send what they carried. Pass a nil build
// when the replacement process is managed externally; start it only
// after calling Respawn, which waits for its hello. Single-flight with
// Rebalance.
func (c *Coordinator) Respawn(shardID int, build func(shardID int) *exec.Cmd, timeout time.Duration) error {
	c.rebalMu.Lock()
	defer c.rebalMu.Unlock()
	deadline := time.Now().Add(timeout)

	c.mu.Lock()
	st := c.shards[shardID]
	if st == nil {
		c.mu.Unlock()
		return fmt.Errorf("shard: respawn: unknown shard %d", shardID)
	}
	old := c.cmds[shardID]
	delete(c.cmds, shardID)

	// Reset the report and handshake view so the fresh incarnation's
	// hello and reports are distinguishable (its counters restart at
	// zero). started stays true: the replacement's ready re-acks with an
	// immediate start.
	st.stats, st.seq, st.mark = netrun.Stats{}, 0, 0
	st.book = nil
	st.bye = false
	st.lastReport = time.Time{}
	c.mu.Unlock()

	if old != nil {
		killWait(old, killGrace) // reap; a SIGKILL at a corpse is a no-op
	}
	if build != nil {
		cmd := build(shardID)
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("shard: respawn shard %d: %w", shardID, err)
		}
		c.mu.Lock()
		if c.cmds == nil {
			c.cmds = map[int]*exec.Cmd{}
		}
		c.cmds[shardID] = cmd
		c.mu.Unlock()
	}

	// Wait for the replacement's hello: the shard's book reappears,
	// carrying its recovered nodes at their fresh socket addresses.
	for {
		c.mu.Lock()
		book := st.book
		c.mu.Unlock()
		if book != nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("shard: respawn: no hello from shard %d within %v", shardID, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Cutover: a fresh epoch whose merged book routes the respawned
	// nodes to their new sockets. The hello entries land as overrides —
	// they must shadow both other shards' stale hello books and any
	// stale migration overrides for nodes this shard hosts.
	c.mu.Lock()
	c.epoch++
	epoch := c.epoch
	var nodes []string
	for id, addr := range st.book {
		c.overrides[id] = addr
		nodes = append(nodes, id)
	}
	sort.Strings(nodes)
	book := c.mergedBookLocked()
	c.mu.Unlock()
	if book == nil {
		return fmt.Errorf("shard: respawn: address book incomplete")
	}
	err := c.broadcastUntil(frame{kind: kindBook, epoch: epoch, book: book}, deadline,
		func(s *shardState) bool { return s.readyEpoch >= epoch })
	if err != nil {
		return fmt.Errorf("shard: respawn: book cutover: %w", err)
	}

	// Rederivation sweeps, both directions.
	all := func(*shardState) bool { return true }
	if err := c.rederive(all, nodes, deadline); err != nil {
		return fmt.Errorf("shard: respawn: %w", err)
	}
	c.mu.Lock()
	var others []string
	for node, owner := range c.owner {
		if owner != shardID {
			others = append(others, node)
		}
	}
	sort.Strings(others)
	c.mu.Unlock()
	if len(others) > 0 {
		respawned := func(s *shardState) bool { return s.id == shardID }
		if err := c.rederive(respawned, others, deadline); err != nil {
			return fmt.Errorf("shard: respawn: %w", err)
		}
	}
	return nil
}

// rederive asks the shards that match to re-send the derivations homed
// at the listed nodes, retrying until each acknowledges the sweep.
func (c *Coordinator) rederive(match func(*shardState) bool, nodes []string, deadline time.Time) error {
	c.mu.Lock()
	c.reqSeq++
	req := c.reqSeq
	epoch := c.epoch
	c.mu.Unlock()
	err := c.broadcastUntil(frame{kind: kindRederive, req: req, epoch: epoch, nodes: nodes}, deadline,
		func(s *shardState) bool { return !match(s) || s.rederivedReq >= req })
	if err != nil {
		return fmt.Errorf("rederive toward %d nodes: %w", len(nodes), err)
	}
	return nil
}

// Migration names one node move of a rebalance plan.
type Migration struct {
	// Node is the NDlog node to move.
	Node string
	// To is the destination shard ID.
	To int
}

// RebalanceReport describes a completed rebalance.
type RebalanceReport struct {
	// Epoch is the membership epoch installed by the cutover.
	Epoch uint64
	// Moved lists the migrations performed.
	Moved []Migration
	// QuiesceWait is how long the fleet took to go quiet before the
	// cutover could start.
	QuiesceWait time.Duration
	// Pause is the quiesce→resume wall time: the window during which
	// the deployment made no progress (state transfer + book install +
	// resume barrier).
	Pause time.Duration
	// StateBytes is the total exported state moved between shards.
	StateBytes int
}

// Epoch returns the current membership epoch (1 = the manifest's
// initial partition).
func (c *Coordinator) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Owner returns the shard currently hosting a node (-1 if unknown).
func (c *Coordinator) Owner(node string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id, ok := c.owner[node]; ok {
		return id
	}
	return -1
}

// Rebalance migrates nodes between live shards under a new membership
// epoch:
//
//  1. quiesce — wait for the fleet's fixpoint (WaitQuiescent), so no
//     tuple is in flight when state moves;
//  2. release — each migrating node's worker exports the node's base
//     and soft state (engine Export) and drops it from its socket set;
//  3. adopt — the destination worker binds a fresh socket for the node
//     and holds the state;
//  4. cutover — every worker installs the new epoch's book and fences
//     the old epoch's datagrams;
//  5. resume — workers import the held state (re-deriving the local
//     closure via the Node.Rederive sweep) and run the neighbor-side
//     rederivation sweep (RederiveFor), which rebuilds the derived
//     state flowing into the moved nodes.
//
// Every step is an idempotent datagram exchange retried until
// acknowledged, against the shared timeout. Rebalances are
// single-flight; concurrent callers serialize. On success the report
// carries the pause (quiesce→resume) wall time.
//
// If a destination cannot adopt a released node (bind failure, dead
// worker), the coordinator re-adopts the node back onto its source
// shard from the state it already holds, then completes the cutover
// for wherever the nodes actually landed before returning the error —
// a failed rebalance leaves the fleet whole, never short a node.
func (c *Coordinator) Rebalance(migs []Migration, timeout time.Duration) (*RebalanceReport, error) {
	c.rebalMu.Lock()
	defer c.rebalMu.Unlock()
	if len(migs) == 0 {
		return nil, fmt.Errorf("shard: rebalance: empty plan")
	}

	// Validate the plan against current ownership.
	c.mu.Lock()
	from := map[string]int{}
	for _, m := range migs {
		src, ok := c.owner[m.Node]
		if !ok {
			c.mu.Unlock()
			return nil, fmt.Errorf("shard: rebalance: unknown node %q", m.Node)
		}
		if c.shards[m.To] == nil {
			c.mu.Unlock()
			return nil, fmt.Errorf("shard: rebalance: unknown destination shard %d", m.To)
		}
		if src == m.To {
			c.mu.Unlock()
			return nil, fmt.Errorf("shard: rebalance: node %q already on shard %d", m.Node, m.To)
		}
		if _, dup := from[m.Node]; dup {
			c.mu.Unlock()
			return nil, fmt.Errorf("shard: rebalance: node %q moved twice in one plan", m.Node)
		}
		from[m.Node] = src
		if c.shards[src].addr == nil || c.shards[m.To].addr == nil {
			c.mu.Unlock()
			return nil, fmt.Errorf("shard: rebalance: shard %d or %d has not joined yet", src, m.To)
		}
	}
	c.mu.Unlock()

	deadline := time.Now().Add(timeout)
	t0 := time.Now()
	if !c.WaitQuiescent(timeout) {
		return nil, fmt.Errorf("shard: rebalance: fleet did not quiesce within %v", timeout)
	}
	tQuiesce := time.Now()

	// Release each migrating node and collect its exported state.
	states := map[string][]byte{}
	stateBytes := 0
	for _, m := range migs {
		blob, err := c.releaseNode(m.Node, from[m.Node], deadline)
		if err != nil {
			return nil, err
		}
		states[m.Node] = blob
		stateBytes += len(blob)
	}

	// Hand each node to its destination worker (socket binds now; the
	// state import waits for resume, when the new epoch is installed
	// fleet-wide). A node whose destination fails is re-adopted onto
	// its source shard from the state the coordinator holds — the
	// cutover below then installs wherever each node actually landed,
	// so even a failed rebalance leaves the fleet whole.
	newAddrs := map[string]string{}
	placed := map[string]int{}
	var adoptErr error
	for _, m := range migs {
		addr, err := c.adoptNode(m.Node, m.To, states[m.Node], deadline)
		if err == nil {
			newAddrs[m.Node], placed[m.Node] = addr, m.To
			continue
		}
		if adoptErr == nil {
			adoptErr = err
		}
		restoreBy := time.Now().Add(10 * time.Second)
		if deadline.After(restoreBy) {
			restoreBy = deadline
		}
		addr, rerr := c.adoptNode(m.Node, from[m.Node], states[m.Node], restoreBy)
		if rerr != nil {
			return nil, fmt.Errorf("shard: rebalance: node %q LOST (adopt: %v; restore to shard %d: %v)",
				m.Node, err, from[m.Node], rerr)
		}
		newAddrs[m.Node], placed[m.Node] = addr, from[m.Node]
	}
	// A recovery must finish the cutover even if the caller's deadline
	// lapsed during the failed adoption, or restored nodes stay dark.
	if adoptErr != nil {
		if min := time.Now().Add(10 * time.Second); deadline.Before(min) {
			deadline = min
		}
	}

	// Cutover: new epoch, new book, every worker must acknowledge
	// before anything resumes (a worker running the old epoch would
	// fence the resumed traffic).
	c.mu.Lock()
	c.epoch++
	epoch := c.epoch
	for node, addr := range newAddrs {
		c.overrides[node] = addr
	}
	for node, shardID := range placed {
		c.owner[node] = shardID
	}
	book := c.mergedBookLocked()
	c.mu.Unlock()
	if book == nil {
		return nil, fmt.Errorf("shard: rebalance: address book incomplete")
	}
	err := c.broadcastUntil(frame{kind: kindBook, epoch: epoch, book: book}, deadline,
		func(s *shardState) bool { return s.readyEpoch >= epoch })
	if err != nil {
		return nil, fmt.Errorf("shard: rebalance: book cutover: %w", err)
	}

	// Resume: import held state, rederive the moved nodes' inbound
	// views, go.
	moved := make([]string, 0, len(migs))
	for _, m := range migs {
		moved = append(moved, m.Node)
	}
	err = c.broadcastUntil(frame{kind: kindResume, epoch: epoch, nodes: moved}, deadline,
		func(s *shardState) bool { return s.resumedEpoch >= epoch })
	if err != nil {
		return nil, fmt.Errorf("shard: rebalance: resume: %w", err)
	}
	if adoptErr != nil {
		// The fleet is whole again (failed nodes restored to their
		// sources under the new epoch), but the requested placement was
		// not achieved.
		return nil, fmt.Errorf("shard: rebalance: %w (failed nodes restored to their source shards)", adoptErr)
	}
	return &RebalanceReport{
		Epoch:       epoch,
		Moved:       append([]Migration(nil), migs...),
		QuiesceWait: tQuiesce.Sub(t0),
		Pause:       time.Since(tQuiesce),
		StateBytes:  stateBytes,
	}, nil
}

// Retry pacing for the coordinator's idempotent datagram exchanges.
// The first resend comes fast (the common case is one lost datagram on
// loopback/LAN); the interval then doubles to a cap so a dead or
// wedged worker is probed, not hammered, for the rest of its deadline.
const (
	retryStart = 50 * time.Millisecond
	retryCap   = 800 * time.Millisecond
	// xferWorkerTimeout bounds any single worker's release/adopt
	// exchange: one unresponsive worker fails its transfer in bounded
	// time instead of consuming the whole rebalance deadline.
	xferWorkerTimeout = 10 * time.Second
)

// backoff paces a resend loop: ready reports whether to send now, and
// each send schedules the next one twice as far out, up to the cap.
type backoff struct {
	wait time.Duration
	next time.Time
}

func newBackoff() *backoff { return &backoff{wait: retryStart} }

func (b *backoff) ready() bool {
	if time.Now().Before(b.next) {
		return false
	}
	b.next = time.Now().Add(b.wait)
	if b.wait *= 2; b.wait > retryCap {
		b.wait = retryCap
	}
	return true
}

// releaseNode asks a shard to export and drop a node, retrying the
// idempotent release (with capped exponential backoff, against the
// per-worker transfer deadline) until the chunked state transfer
// completes.
func (c *Coordinator) releaseNode(node string, fromShard int, deadline time.Time) ([]byte, error) {
	c.mu.Lock()
	c.reqSeq++
	req := c.reqSeq
	x := &xferState{req: req}
	c.xfer = x
	addr := c.shards[fromShard].addr
	epoch := c.epoch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.xfer = nil
		c.mu.Unlock()
	}()

	if wd := time.Now().Add(xferWorkerTimeout); wd.Before(deadline) {
		deadline = wd
	}
	retry := newBackoff()
	for time.Now().Before(deadline) {
		if retry.ready() {
			c.conn.WriteToUDP(encodeFrame(frame{kind: kindRelease, req: req, epoch: epoch, node: node}), addr)
		}
		c.mu.Lock()
		done := x.complete()
		c.mu.Unlock()
		if done {
			var blob []byte
			for _, ch := range x.chunks {
				blob = append(blob, ch...)
			}
			return blob, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil, fmt.Errorf("shard: release of %q from shard %d timed out", node, fromShard)
}

// adoptNode streams a node's state to its destination shard, retrying
// with capped exponential backoff — against the per-worker transfer
// deadline — until the worker acknowledges with the node's new data
// address.
func (c *Coordinator) adoptNode(node string, toShard int, blob []byte, deadline time.Time) (string, error) {
	c.mu.Lock()
	c.reqSeq++
	req := c.reqSeq
	c.adoptReq, c.adoptAddr = req, nil
	addr := c.shards[toShard].addr
	epoch := c.epoch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.adoptReq, c.adoptAddr = 0, nil
		c.mu.Unlock()
	}()

	if wd := time.Now().Add(xferWorkerTimeout); wd.Before(deadline) {
		deadline = wd
	}
	chunks := blobChunks(blob)
	retry := newBackoff()
	for time.Now().Before(deadline) {
		if retry.ready() {
			for i, ch := range chunks {
				c.conn.WriteToUDP(encodeFrame(frame{kind: kindAdopt, req: req, epoch: epoch,
					node: node, chunk: i, nchunks: len(chunks), blob: ch}), addr)
			}
		}
		c.mu.Lock()
		got := c.adoptAddr
		c.mu.Unlock()
		if got != nil {
			if *got == "" {
				return "", fmt.Errorf("shard: shard %d failed to bind adopted node %q", toShard, node)
			}
			return *got, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return "", fmt.Errorf("shard: adoption of %q by shard %d timed out", node, toShard)
}

// broadcastUntil re-sends a frame (capped exponential backoff) to every
// shard not yet satisfying done, until all do or the deadline lapses.
func (c *Coordinator) broadcastUntil(f frame, deadline time.Time, done func(*shardState) bool) error {
	payload := encodeFrame(f)
	retry := newBackoff()
	for time.Now().Before(deadline) {
		send := retry.ready()
		c.mu.Lock()
		all := true
		for _, s := range c.shards {
			if done(s) {
				continue
			}
			all = false
			if send && s.addr != nil {
				c.conn.WriteToUDP(payload, s.addr)
			}
		}
		c.mu.Unlock()
		if all {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("shard: broadcast 0x%x not acknowledged by every shard", byte(f.kind))
}

// Tuples gathers a predicate snapshot from every shard and returns the
// merged result sorted. Each (re)query of a shard carries a fresh
// request id and discards that shard's partial chunks, so the merge
// always combines whole per-shard snapshots — a retry can only observe
// states the cluster actually passed through, never a splice of two
// responses. Gathers are single-flight; concurrent callers serialize.
func (c *Coordinator) Tuples(pred string, timeout time.Duration) ([]val.Tuple, error) {
	c.gatherMu.Lock()
	defer c.gatherMu.Unlock()
	c.mu.Lock()
	g := &gatherState{cur: map[int]uint64{}, chunks: map[int][][]val.Tuple{}}
	c.gather = g
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.gather = nil
		c.mu.Unlock()
	}()

	deadline := time.Now().Add(timeout)
	retry := newBackoff()
	for time.Now().Before(deadline) {
		c.mu.Lock()
		if retry.ready() {
			// (Re)query incomplete shards under a fresh request id each,
			// wiping their partial state: a lost chunk costs one retry of
			// that shard's whole snapshot.
			for id, s := range c.shards {
				if s.addr == nil || c.completeLocked(g, id) {
					continue
				}
				c.reqSeq++
				g.cur[id] = c.reqSeq
				delete(g.chunks, id)
				c.conn.WriteToUDP(encodeFrame(frame{kind: kindQuery, req: c.reqSeq, pred: pred}), s.addr)
			}
		}
		done := true
		for id := range c.shards {
			done = done && c.completeLocked(g, id)
		}
		if done {
			var out []val.Tuple
			for _, chunks := range g.chunks {
				for _, ch := range chunks {
					out = append(out, ch...)
				}
			}
			c.mu.Unlock()
			sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
			return out, nil
		}
		c.mu.Unlock()
		time.Sleep(5 * time.Millisecond)
	}
	return nil, fmt.Errorf("shard: gather %q timed out after %v", pred, timeout)
}

func (c *Coordinator) completeLocked(g *gatherState, shardID int) bool {
	chunks, ok := g.chunks[shardID]
	if !ok {
		return false
	}
	for _, ch := range chunks {
		if ch == nil {
			return false
		}
	}
	return true
}

// ShardStats returns each shard's latest reported counters (its final
// bye stats once it has said goodbye; a respawned shard's count from its
// restart), keyed by shard ID.
func (c *Coordinator) ShardStats() map[int]Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[int]Stats{}
	for id, s := range c.shards {
		out[id] = s.stats
	}
	return out
}

// Stats is a shard's data-plane counters as reported over the control
// plane: the runner's own, which idle and bye frames carry as they are.
type Stats = netrun.Stats

// TotalStats sums ShardStats across the deployment.
func (c *Coordinator) TotalStats() Stats {
	var t Stats
	for _, s := range c.ShardStats() {
		t.SentBytes += s.SentBytes
		t.SentMessages += s.SentMessages
		t.RecvBytes += s.RecvBytes
		t.RecvMessages += s.RecvMessages
		t.Dropped += s.Dropped
		t.Fenced += s.Fenced
		t.Retransmits += s.Retransmits
		t.Duplicates += s.Duplicates
		t.Reordered += s.Reordered
		t.AckFrames += s.AckFrames
		t.Outstanding += s.Outstanding
	}
	return t
}

// Shutdown stops the fleet: stop frames are re-sent until every shard
// answers bye (or the overall timeout lapses), spawned processes are
// waited on within the same deadline, and the control socket is
// closed. A worker whose lone bye datagram was lost but whose process
// exited cleanly still counts as acknowledged — bye is the one
// protocol step the sender cannot retry. It returns an error if a
// shard neither said bye nor exited cleanly, or a process had to be
// killed.
func (c *Coordinator) Shutdown(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		allBye := true
		for _, s := range c.shards {
			if s.bye {
				continue
			}
			allBye = false
			if s.addr != nil {
				c.conn.WriteToUDP(encodeFrame(frame{kind: kindStop}), s.addr)
			}
		}
		c.mu.Unlock()
		if allBye {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Reap the spawned processes against the shared deadline.
	exitedClean := map[int]bool{}
	var firstErr error
	for id, cmd := range c.cmds {
		err := waitDeadline(cmd, deadline)
		exitedClean[id] = err == nil
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	c.cmds = nil
	c.mu.Lock()
	for _, s := range c.shards {
		if !s.bye && !exitedClean[s.id] && firstErr == nil {
			firstErr = fmt.Errorf("shard: shard %d never acknowledged stop", s.id)
		}
	}
	c.mu.Unlock()
	c.Close()
	return firstErr
}

// killGrace bounds the wait for a killed worker to be reaped. SIGKILL
// terminates even a SIGSTOPped process, but cmd.Wait can still block on
// inherited descriptors (a grandchild holding the worker's stderr), so
// no reap is allowed to wait forever.
const killGrace = 5 * time.Second

// waitDeadline waits for a spawned worker to exit, killing it if it
// overstays the deadline. Every path out of here is bounded: the
// post-kill reap gets killGrace, after which the zombie is abandoned to
// the reaper goroutine and reported.
func waitDeadline(cmd *exec.Cmd, deadline time.Time) error {
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	wait := time.Until(deadline)
	if wait < 0 {
		wait = 0
	}
	select {
	case err := <-done:
		return err
	case <-time.After(wait):
		if err := reap(cmd, done, killGrace); err != nil {
			return err
		}
		return fmt.Errorf("shard: worker pid %d killed at shutdown deadline", cmd.Process.Pid)
	}
}

// killWait kills a worker and reaps it within the grace period.
func killWait(cmd *exec.Cmd, grace time.Duration) {
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	reap(cmd, done, grace)
}

// reap sends SIGKILL and waits up to grace for the exit status. A
// worker that cannot be reaped even then (wedged descriptors) is
// reported rather than waited on forever.
func reap(cmd *exec.Cmd, done <-chan error, grace time.Duration) error {
	cmd.Process.Kill()
	select {
	case <-done:
		return nil
	case <-time.After(grace):
		return fmt.Errorf("shard: worker pid %d not reapable %v after kill", cmd.Process.Pid, grace)
	}
}

// Close releases the control socket and stops the receive loop. Safe
// after Shutdown; use directly only when no processes were spawned.
func (c *Coordinator) Close() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	c.conn.Close()
	c.wg.Wait()
}

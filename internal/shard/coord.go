package shard

import (
	"bufio"
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

// Coordinator drives one sharded deployment from a TCP control
// listener, one connection per worker: it assembles the global address
// book from worker hellos, releases the start barrier, detects the
// fleet's fixpoint from waves of idle reports, gathers predicates,
// re-partitions the live fleet (Rebalance), and tears the deployment
// down. It never touches data-plane traffic — tuples travel
// shard-to-shard directly.
type Coordinator struct {
	m  *Manifest
	ln net.Listener

	mu     sync.Mutex
	shards map[int]*shardState
	conns  map[*ctlConn]bool // every accepted connection, bound or not
	closed bool
	// stopping is set once Shutdown has begun: a hello is then answered
	// with stop, so a worker that dials late is still told to exit.
	stopping bool
	reqSeq   uint64
	// epoch is the current membership view; it starts at 1 (the
	// manifest's partition) and bumps on every rebalance.
	epoch uint64
	// owner maps every node to the shard currently hosting it;
	// overrides maps migrated nodes to their post-migration data
	// addresses (they shadow the stale hello-book entries).
	owner     map[string]int
	overrides map[string]string
	// replies collects the answers to the request in flight — the one
	// numbered reqSeq — by shard; nil between requests. reqMu makes
	// requests (gathers, transfers, rederivations) single-flight.
	reqMu   sync.Mutex
	replies map[int]frame
	// rebalMu serializes Rebalance callers (single-flight, like gathers);
	// Respawn shares it — both reconfigure the fleet.
	rebalMu sync.Mutex
	// mark is the newest report-wave mark: every pong carries it, and a
	// report echoing it was taken after it was raised.
	mark uint64

	procs map[int]*proc // spawned worker processes, by shard ID

	wg sync.WaitGroup
}

// proc is one worker process the coordinator spawned. Its reaper
// goroutine is the only caller of cmd.Wait: it records how the process
// ended under the coordinator's mu, then closes done.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{}
	err  error  // cmd.Wait's result; read after done closes
	exit string // guarded by mu: "" while the process runs
}

// start launches cmd and its reaper.
func (c *Coordinator) start(cmd *exec.Cmd) (*proc, error) {
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	go func() {
		err := cmd.Wait()
		exit := " (exited: exit status 0)"
		if err != nil {
			exit = " (exited: " + err.Error() + ")"
		}
		c.mu.Lock()
		p.err, p.exit = err, exit
		c.mu.Unlock()
		close(p.done)
	}()
	return p, nil
}

// exitLocked says how shard id's spawned process ended, as a suffix for
// an error message: "" while it runs, or if it was not spawned here.
func (c *Coordinator) exitLocked(id int) string {
	if p := c.procs[id]; p != nil {
		return p.exit
	}
	return ""
}

// shardState is the coordinator's view of one worker process.
type shardState struct {
	id int
	// conn is the connection the worker's hello arrived on; frames from
	// any other connection claiming this shard are ignored. gone is set
	// when that connection closes without a bye.
	conn *ctlConn
	gone bool
	book map[string]string

	ready   bool
	started bool
	// readyEpoch / resumedEpoch are the latest epochs the worker has
	// acknowledged installing (ready) and resuming into (resumed).
	readyEpoch   uint64
	resumedEpoch uint64

	// Latest idle report: mark is the newest wave mark the worker had
	// seen when it took the report, and stats is its runner's counters,
	// the credit (Outstanding) included.
	epoch      uint64 // membership view the report was sent under
	mark       uint64
	activity   int64
	stats      netrun.Stats
	lastReport time.Time

	bye bool
}

// NewCoordinator opens the control listener and starts accepting
// workers. Workers are expected to dial ControlAddr; spawn them with
// Spawn or any other process manager.
func NewCoordinator(m *Manifest) (*Coordinator, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	// Wildcard bind so workers on other machines can reach the control
	// plane (ControlAddr still names loopback for same-host spawns).
	ln, err := net.Listen("tcp", ":0")
	if err != nil {
		return nil, fmt.Errorf("shard: coordinator listener: %w", err)
	}
	c := &Coordinator{
		m:         m,
		ln:        ln,
		shards:    map[int]*shardState{},
		conns:     map[*ctlConn]bool{},
		epoch:     1,
		owner:     map[string]int{},
		overrides: map[string]string{},
	}
	for i := range m.Shards {
		c.shards[m.Shards[i].ID] = &shardState{id: m.Shards[i].ID}
		for node := range m.Shards[i].Nodes {
			c.owner[node] = m.Shards[i].ID
		}
	}
	c.wg.Add(1)
	go c.accept()
	return c, nil
}

// ControlAddr returns the coordinator's TCP control address as
// reachable from this host (the wildcard bind is reported as loopback).
// Workers on other machines must instead be given an address routable
// from there — the coordinator listens on all interfaces.
func (c *Coordinator) ControlAddr() string {
	a := c.ln.Addr().(*net.TCPAddr)
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
	procs := map[int]*proc{}
	for i := range c.m.Shards {
		id := c.m.Shards[i].ID
		p, err := c.start(build(id))
		if err != nil {
			for _, started := range procs {
				killWait(started, killGrace)
			}
			return fmt.Errorf("shard: spawn shard %d: %w", id, err)
		}
		procs[id] = p
	}
	c.mu.Lock()
	c.procs = procs
	c.mu.Unlock()
	return nil
}

// accept takes worker connections until Close, each served by its own
// reader goroutine.
func (c *Coordinator) accept() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		cc := &ctlConn{conn: conn}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return
		}
		c.conns[cc] = true
		c.wg.Add(1)
		c.mu.Unlock()
		go c.serve(cc)
	}
}

// serve reads one connection's frames in order and applies each. When
// the connection closes, the shard it is bound to — if it still is —
// is gone.
func (c *Coordinator) serve(cc *ctlConn) {
	defer c.wg.Done()
	r := bufio.NewReader(cc.conn)
	for {
		f, err := readFrame(r)
		if err != nil {
			break
		}
		c.apply(f, cc)
	}
	cc.conn.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.conns, cc)
	for _, s := range c.shards {
		if s.conn == cc {
			s.conn, s.gone = nil, !s.bye
		}
	}
}

// apply folds one frame into the coordinator's state and writes the
// protocol's replies: book for hello, start for ready, pong for idle.
// Replies are written under mu, so anyone who observes the state change
// writes after them and the worker reads them in that order.
func (c *Coordinator) apply(f frame, cc *ctlConn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.shards[f.Shard]
	if st == nil { // unknown shard id: ignore
		return
	}
	if f.Kind == kindHello {
		// The hello binds the shard to this connection; a previous
		// incarnation's connection, if still open, is cut.
		if st.conn != nil && st.conn != cc {
			st.conn.conn.Close()
		}
		st.conn, st.gone, st.book = cc, false, f.Book
		if c.stopping {
			cc.send(frame{Kind: kindStop})
			return
		}
		// The last hello pushes the merged book to every shard; a later
		// one (a respawn) gets it alone.
		if book := c.mergedBookLocked(); book != nil {
			bf := frame{Kind: kindBook, Epoch: c.epoch, Book: book}
			if st.started {
				cc.send(bf)
			} else {
				for _, s := range c.shards {
					if s.conn != nil {
						s.conn.send(bf)
					}
				}
			}
		}
		return
	}
	if st.conn != cc {
		return // not the connection this shard's hello bound
	}
	switch f.Kind {
	case kindReady:
		wasReady := st.ready
		st.ready = true
		if f.Epoch > st.readyEpoch {
			st.readyEpoch = f.Epoch
		}
		if st.started {
			// A respawn's first ready: the barrier released long ago.
			if !wasReady {
				cc.send(frame{Kind: kindStart})
			}
		} else if c.allReadyLocked() {
			for _, s := range c.shards {
				s.started = true
				if s.conn != nil {
					s.conn.send(frame{Kind: kindStart})
				}
			}
		}
	case kindIdle:
		st.epoch, st.mark, st.activity, st.stats = f.Epoch, f.Mark, f.Activity, f.stats()
		st.lastReport = time.Now()
		// Ack with the current wave mark: the worker uses pongs to notice a
		// hung coordinator, and answers a mark it has not seen with a
		// report at once.
		cc.send(frame{Kind: kindPong, Mark: c.mark})
	case kindTuples, kindState, kindAdopted, kindRederived:
		if c.replies != nil && f.Req == c.reqSeq {
			c.replies[f.Shard] = f
		}
	case kindResumed:
		if f.Epoch > st.resumedEpoch {
			st.resumedEpoch = f.Epoch
		}
	case kindBye:
		st.bye = true
		st.stats = f.stats()
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
// the start barrier has been released. It fails as soon as a spawned
// worker exits, since the barrier can then never release.
func (c *Coordinator) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		started, exited := true, error(nil)
		for id, s := range c.shards {
			started = started && s.started
			if exit := c.exitLocked(id); exit != "" {
				exited = fmt.Errorf("shard: shard %d is gone before the fleet was ready%s", id, exit)
			}
		}
		c.mu.Unlock()
		if started {
			return nil
		}
		if exited != nil {
			return exited
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
		err := c.await(frame{Kind: kindPong, Mark: mark}, deadline,
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
// whose control connection closed without a bye, and those whose
// periodic idle reports (one per idlePeriod) have stopped for the
// silence window — a worker that hangs keeps its connection open.
func (c *Coordinator) DeadWorkers(silence time.Duration) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	var out []int
	for id, s := range c.shards {
		if !s.started || s.bye {
			continue
		}
		if s.gone || (!s.lastReport.IsZero() && now.Sub(s.lastReport) > silence) {
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
//     and re-enters the handshake (its ready is answered with an
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
	old := c.procs[shardID]
	delete(c.procs, shardID)

	// Reset the report and handshake view for the fresh incarnation
	// (its counters restart at zero), and cut the old connection if it
	// is still open. started stays true: the replacement's first ready
	// is answered with an immediate start.
	if st.conn != nil {
		st.conn.conn.Close()
	}
	st.conn, st.gone, st.book, st.ready, st.bye = nil, false, nil, false, false
	st.stats, st.mark, st.lastReport = netrun.Stats{}, 0, time.Time{}
	c.mu.Unlock()

	if old != nil {
		killWait(old, killGrace) // reap; a SIGKILL at a corpse is a no-op
	}
	if build != nil {
		p, err := c.start(build(shardID))
		if err != nil {
			return fmt.Errorf("shard: respawn shard %d: %w", shardID, err)
		}
		c.mu.Lock()
		if c.procs == nil {
			c.procs = map[int]*proc{}
		}
		c.procs[shardID] = p
		c.mu.Unlock()
	}

	// Wait for the replacement's hello: the shard's book reappears,
	// carrying its recovered nodes at their fresh socket addresses.
	for {
		c.mu.Lock()
		book, exit := st.book, c.exitLocked(shardID)
		c.mu.Unlock()
		if book != nil {
			break
		}
		if exit != "" {
			return fmt.Errorf("shard: respawn: shard %d is gone before its hello%s", shardID, exit)
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
	err := c.await(frame{Kind: kindBook, Epoch: epoch, Book: book}, deadline,
		func(s *shardState) bool { return s.readyEpoch >= epoch })
	if err != nil {
		return fmt.Errorf("shard: respawn: book cutover: %w", err)
	}

	// Rederivation sweeps, both directions.
	all := func(*shardState) bool { return true }
	if _, err := c.request(frame{Kind: kindRederive, Nodes: nodes}, all, deadline); err != nil {
		return fmt.Errorf("shard: respawn: rederive toward %d nodes: %w", len(nodes), err)
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
		if _, err := c.request(frame{Kind: kindRederive, Nodes: others}, respawned, deadline); err != nil {
			return fmt.Errorf("shard: respawn: rederive toward %d nodes: %w", len(others), err)
		}
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
//  5. resume — workers import the held state (the import's drain
//     re-derives the local closure) and run the neighbor-side
//     rederivation sweep (RederiveFor), which rebuilds the derived
//     state flowing into the moved nodes.
//
// Every step writes its request once and waits for the acknowledgement,
// against the shared timeout; a worker whose connection closes fails
// the step at once. Rebalances are single-flight; concurrent callers
// serialize. On success the report carries the pause (quiesce→resume)
// wall time.
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
		if c.shards[src].conn == nil || c.shards[m.To].conn == nil {
			c.mu.Unlock()
			return nil, fmt.Errorf("shard: rebalance: shard %d or %d is not connected", src, m.To)
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
	err := c.await(frame{Kind: kindBook, Epoch: epoch, Book: book}, deadline,
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
	err = c.await(frame{Kind: kindResume, Epoch: epoch, Nodes: moved}, deadline,
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

// xferWorkerTimeout bounds any single worker's release/adopt exchange:
// a worker that hangs fails its transfer in bounded time instead of
// consuming the whole rebalance deadline.
const xferWorkerTimeout = 10 * time.Second

// releaseNode asks a shard to export and drop a node and returns the
// exported state.
func (c *Coordinator) releaseNode(node string, fromShard int, deadline time.Time) ([]byte, error) {
	r, err := c.transfer(fromShard, frame{Kind: kindRelease, Node: node}, deadline)
	if err != nil {
		return nil, fmt.Errorf("shard: release of %q from shard %d: %w", node, fromShard, err)
	}
	return r.Blob, nil
}

// adoptNode hands a node's state to its destination shard and returns
// the node's new data address.
func (c *Coordinator) adoptNode(node string, toShard int, blob []byte, deadline time.Time) (string, error) {
	r, err := c.transfer(toShard, frame{Kind: kindAdopt, Node: node, Blob: blob}, deadline)
	if err != nil {
		return "", fmt.Errorf("shard: adoption of %q by shard %d: %w", node, toShard, err)
	}
	if r.Addr == "" {
		return "", fmt.Errorf("shard: shard %d failed to bind adopted node %q", toShard, node)
	}
	return r.Addr, nil
}

// transfer sends one shard a release or adopt and returns its reply,
// waiting no longer than the per-worker transfer deadline.
func (c *Coordinator) transfer(to int, f frame, deadline time.Time) (frame, error) {
	if wd := time.Now().Add(xferWorkerTimeout); wd.Before(deadline) {
		deadline = wd
	}
	replies, err := c.request(f, func(s *shardState) bool { return s.id == to }, deadline)
	return replies[to], err
}

// request sends f, under a fresh request id and stamped with the
// current epoch, to every shard match selects, and returns each one's
// reply by shard.
func (c *Coordinator) request(f frame, match func(*shardState) bool, deadline time.Time) (map[int]frame, error) {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	c.mu.Lock()
	c.reqSeq++
	f.Req, f.Epoch = c.reqSeq, c.epoch
	replies := map[int]frame{}
	c.replies = replies
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.replies = nil
		c.mu.Unlock()
	}()
	err := c.await(f, deadline, func(s *shardState) bool {
		_, ok := replies[s.id]
		return ok || !match(s)
	})
	if err != nil {
		return nil, err
	}
	return replies, nil
}

// await writes f once to every shard done does not yet hold for, then
// waits until it holds for all of them. It fails at once if one of them
// is not connected or its connection closes — which is how a spawned
// worker's exit shows, and the error then carries its exit status — and
// when the deadline lapses. done is called under mu.
func (c *Coordinator) await(f frame, deadline time.Time, done func(*shardState) bool) error {
	c.mu.Lock()
	sent := map[int]*ctlConn{}
	for id, s := range c.shards {
		if done(s) {
			continue
		}
		if s.conn == nil {
			err := fmt.Errorf("shard: frame kind %d: shard %d is not connected%s", f.Kind, id, c.exitLocked(id))
			c.mu.Unlock()
			return err
		}
		sent[id] = s.conn
	}
	c.mu.Unlock()
	for _, cc := range sent {
		cc.send(f)
	}
	for {
		c.mu.Lock()
		all := true
		for id, cc := range sent {
			s := c.shards[id]
			if done(s) {
				continue
			}
			if s.conn != cc {
				err := fmt.Errorf("shard: frame kind %d: shard %d disconnected%s", f.Kind, id, c.exitLocked(id))
				c.mu.Unlock()
				return err
			}
			all = false
		}
		c.mu.Unlock()
		if all {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("shard: frame kind %d not acknowledged by every shard", f.Kind)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Tuples gathers a predicate snapshot from every shard — one tuples
// frame each — and returns the merged result sorted. Gathers are
// single-flight; concurrent callers serialize.
func (c *Coordinator) Tuples(pred string, timeout time.Duration) ([]val.Tuple, error) {
	all := func(*shardState) bool { return true }
	replies, err := c.request(frame{Kind: kindQuery, Pred: pred}, all, time.Now().Add(timeout))
	if err != nil {
		return nil, fmt.Errorf("shard: gather %q: %w", pred, err)
	}
	var out []val.Tuple
	for _, r := range replies {
		out = append(out, r.Tuples...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out, nil
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
		t.Drains += s.Drains
		t.Outstanding += s.Outstanding
	}
	return t
}

// Shutdown stops the fleet: a stop frame goes to every connected
// shard, and to every shard whose hello arrives from then on; the
// coordinator waits for each bye (or the connection's close) within the
// timeout, spawned processes are waited on within the same deadline,
// and the control listener is closed. It returns an error if a shard
// never said bye or a process failed or had to be killed.
func (c *Coordinator) Shutdown(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	c.mu.Lock()
	c.stopping = true
	c.mu.Unlock()
	// A timeout here is reported below, as the shards that never said bye.
	stopped := func(s *shardState) bool { return s.bye || s.conn == nil }
	_ = c.await(frame{Kind: kindStop}, deadline, stopped)
	// Reap the spawned processes against the shared deadline.
	c.mu.Lock()
	procs := c.procs
	c.procs = nil
	c.mu.Unlock()
	var firstErr error
	for _, p := range procs {
		if err := waitDeadline(p, deadline); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// A shard whose hello came after the stops went out was answered
	// with stop: wait for its bye or its connection's close too.
	_ = c.await(frame{Kind: kindStop}, deadline, stopped)
	c.mu.Lock()
	for _, s := range c.shards {
		if !s.bye && firstErr == nil {
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
// overstays the deadline, and returns its exit status. Every path out of
// here is bounded: the post-kill wait gets killGrace, after which the
// zombie is abandoned to its reaper goroutine and reported.
func waitDeadline(p *proc, deadline time.Time) error {
	select {
	case <-p.done:
		return p.err
	case <-time.After(max(time.Until(deadline), 0)):
		if err := killWait(p, killGrace); err != nil {
			return err
		}
		return fmt.Errorf("shard: worker pid %d killed at shutdown deadline", p.cmd.Process.Pid)
	}
}

// killWait sends SIGKILL and waits up to grace for the reaper to record
// the exit. A worker that cannot be reaped even then (wedged
// descriptors) is reported rather than waited on forever.
func killWait(p *proc, grace time.Duration) error {
	p.cmd.Process.Kill()
	select {
	case <-p.done:
		return nil
	case <-time.After(grace):
		return fmt.Errorf("shard: worker pid %d not reapable %v after kill", p.cmd.Process.Pid, grace)
	}
}

// Close closes the control listener and every worker connection, and
// waits for the reader goroutines to exit. Safe after Shutdown; use
// directly only when no processes were spawned.
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.closed = true
	c.ln.Close()
	for cc := range c.conns {
		cc.conn.Close()
	}
	c.mu.Unlock()
	c.wg.Wait()
}

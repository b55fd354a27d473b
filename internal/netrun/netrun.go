// Package netrun executes an NDlog deployment over real UDP sockets
// (standard library net only). It is the bridge from the simulated
// evaluation environment to an actual networked one: every NDlog node
// gets its own socket and goroutine, and derived tuples travel as UDP
// datagrams encoded exactly like the simulator's messages, over links
// made reliable and FIFO (link.go). A receive loop empties its socket
// before it drains: every datagram already waiting joins one batch, and
// the batch runs one drain, one WAL commit and one ack per peer. A
// receiver acks a frame only after the drain it fed has committed and
// dispatched, so one runner-wide credit — unacked frames plus drains in
// progress — is zero exactly at the fixpoint.
//
// A Runner hosts a set of *local* nodes, but its address book may map
// further node IDs to sockets owned by other runners — in another
// goroutine or another OS process entirely (see internal/shard for the
// multi-process deployment built on this). Tuples bound for a node the
// book does not know are counted as dropped, exactly like a datagram
// with no route. The local set is elastic: AddNode and RemoveNode
// adopt and release nodes on a live socket set, and ExportState /
// ImportNode move a node's engine state for migration.
//
// Every data datagram carries the runner's membership epoch
// (SetEpoch): a frame from a different epoch is fenced — counted,
// dropped, never applied or acked — which is what makes a live
// re-partition safe against stragglers from the previous configuration.
// A new epoch restarts every link at seq 1.
//
// Ownership: a Runner owns its engine nodes and their sockets. Engine
// nodes are single-threaded, so every Push/Drain/Tuples access happens
// under the per-node mutex; the receive loops rely on the engine's
// copy-on-decode invariant (decoded tuples never alias the read buffer)
// to reuse one buffer per loop. A drain's datagrams leave under the
// node's send lock, taken before the node lock is released, so each
// link carries a node's drains in the order they ran (PSN assumes FIFO
// links) without the node lock being held across socket writes. The
// send lock also guards the node's link state. The address book and the
// node set are guarded separately so remote entries and live adoptions
// can land while the loops are running.
//
// The default runner binds loopback addresses, so tests exercise
// genuine socket I/O without leaving the machine; datagrams are lost and
// reordered exactly as with real UDP, and the link layer repairs both.
package netrun

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"net"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ndlog/internal/ast"
	"ndlog/internal/durable"
	"ndlog/internal/engine"
	"ndlog/internal/val"
)

// Config is where a runner's sockets bind. Every local node has one
// socket, one receive goroutine and (with durability) one WAL; there is
// no other layout.
type Config struct {
	// BindHost is the host ephemeral node sockets bind when a node's
	// manifest address is "" — loopback by default, a LAN interface for
	// multi-machine runs.
	BindHost string
}

// Runner drives the local slice of an NDlog deployment over UDP: one
// socket, one receive loop and one durable store per local node.
type Runner struct {
	prog *ast.Program
	opts engine.Options

	// compiled is prog checked, localized and planned once; every local
	// node is instantiated from it.
	compiled *engine.Program

	// bindHost is the host ephemeral node sockets bind when a node's
	// manifest address is "" — loopback by default, a LAN interface for
	// multi-machine runs (manifest Host knob).
	bindHost string

	// durDir/durOpts configure per-node durable stores (EnableDurability);
	// "" means in-memory only.
	durDir  string
	durOpts durable.Options

	// nodesMu guards the local node set and the started flag: nodes can
	// be adopted and released while the receive loops are live.
	nodesMu sync.RWMutex
	nodes   map[string]*netNode
	started bool

	// book maps NDlog addresses — local and remote — to UDP addresses.
	// bookMu guards it: remote entries arrive from a control plane while
	// receive loops are dispatching.
	bookMu sync.RWMutex
	book   map[string]*net.UDPAddr

	// epoch is the membership epoch stamped on every outbound data
	// datagram; inbound frames from any other epoch are fenced.
	epoch atomic.Uint64
	// inc is this runner's random incarnation nonce, stamped on every
	// datagram: a peer that sees it change resets the link, so a runner
	// restarted on a pinned address is not taken for duplicates.
	inc uint64
	// born anchors the monotonic clock the link timers run on.
	born time.Time

	// credit is the fixpoint detector: data frames sent and not yet
	// acked, plus drains in progress. Zero means no work is left
	// anywhere this runner can see; the decrement that reaches zero
	// closes zeroWait, on which WaitQuiescent parks.
	credit   atomic.Int64
	zeroMu   sync.Mutex
	zeroWait chan struct{}

	// lossBudget > 0 makes dispatch drop that many new outbound
	// datagrams (still counted as sent) — deterministic loss injection,
	// repaired by retransmission like any other loss.
	lossBudget atomic.Int64

	activity    atomic.Int64 // bumps on every delivered datagram, injection, or seed
	sentB       atomic.Int64
	sentM       atomic.Int64
	recvB       atomic.Int64
	recvM       atomic.Int64
	dropped     atomic.Int64 // deltas bound for nodes absent from the book
	fenced      atomic.Int64 // datagrams dropped for carrying a stale epoch
	retransmits atomic.Int64
	duplicates  atomic.Int64
	reordered   atomic.Int64
	ackFrames   atomic.Int64
	drains      atomic.Int64

	wg   sync.WaitGroup
	stop chan struct{}
}

// Stats is a snapshot of a runner's traffic counters, exported to the
// shard control plane (idle and bye frames carry it as is) and the
// metrics harness. The message counts are wire-level: data datagrams
// including retransmissions and duplicates, not ack-only frames.
type Stats struct {
	SentBytes    int64 // UDP payload bytes of data datagrams sent
	SentMessages int64 // data datagrams sent, retransmissions included
	RecvBytes    int64 // UDP payload bytes of data datagrams received
	RecvMessages int64 // data datagrams received, duplicates and fenced included
	Dropped      int64 // outbound deltas with no address-book entry
	Fenced       int64 // inbound datagrams fenced for a stale epoch
	Retransmits  int64 // data datagrams sent again after an unacked rto
	Duplicates   int64 // inbound data datagrams delivered before
	Reordered    int64 // inbound data datagrams held for an earlier gap
	AckFrames    int64 // ack-only frames sent
	Drains       int64 // engine drains: receive batches, injections, seeds, imports and sweeps
	Outstanding  int64 // the credit: unacked data datagrams plus drains in progress
}

type netNode struct {
	id   string
	node *engine.Node
	conn *net.UDPConn
	mu   sync.Mutex // guards node (engine nodes are single-threaded) and seeded
	// seeded marks a node that holds its home base facts: pushed by Seed,
	// recovered from durable state, or imported.
	seeded bool
	// sendMu orders this node's outbound datagrams: whoever drained the
	// node takes it while still holding mu and releases it after
	// dispatching, so sends happen in drain order while the next drain
	// already runs. Ordered strictly after mu; nothing is locked under it
	// but the book. It also guards the link state below.
	sendMu sync.Mutex
	// links holds the node's link to each peer socket it has exchanged
	// data with in linkEpoch (few peers: a slice beats a map). gone marks
	// a released node, whose late drains send nothing.
	links     []*link
	linkEpoch uint64
	gone      bool
	// ackBuf is the receive loop's reused buffer for ack-only frames.
	ackBuf []byte
	// closed marks a released node: its receive loop exits on the next
	// read error instead of treating the closed socket as transient.
	closed atomic.Bool

	// dur is the node's durable store (nil without durability); pending
	// collects the deltas the engine journal tap emits during a drain,
	// committed as one WAL record before the drain's outbound datagrams
	// are dispatched. Both are guarded by mu.
	dur     *durable.Store
	pending []engine.Delta
}

// New creates a runner hosting every id locally. Each node binds an
// ephemeral UDP port on localhost.
func New(prog *ast.Program, ids []string, opts engine.Options) (*Runner, error) {
	local := make(map[string]string, len(ids))
	for _, id := range ids {
		local[id] = ""
	}
	return NewConfigured(prog, local, Config{}, opts)
}

// NewConfigured creates a runner hosting only the nodes in local,
// mapping each to its bind address: a "host:port" string pins the
// socket (static multi-machine manifests), "" binds an ephemeral port
// on cfg.BindHost (loopback when that is "" too). Nodes of the program
// that live elsewhere are reached through remote book entries installed
// with SetRemote.
func NewConfigured(prog *ast.Program, local map[string]string, cfg Config, opts engine.Options) (*Runner, error) {
	compiled, err := engine.Compile(prog)
	if err != nil {
		return nil, err
	}
	r := &Runner{
		prog:     prog,
		opts:     opts,
		compiled: compiled,
		bindHost: cfg.BindHost,
		nodes:    map[string]*netNode{},
		book:     map[string]*net.UDPAddr{},
		inc:      uint64(rand.Uint32()) | 1, // nonzero: a link's peerInc 0 means "none seen yet"
		born:     time.Now(),
		stop:     make(chan struct{}),
	}
	for id, bind := range local {
		if _, err := r.bindNode(id, bind); err != nil {
			r.Close()
			return nil, err
		}
	}
	return r, nil
}

// bindNode creates the engine node and socket for one local node and
// installs both. Callers hold no locks (construction) or nodesMu
// (AddNode).
func (r *Runner) bindNode(id, bind string) (*netNode, error) {
	laddr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	if bind == "" && r.bindHost != "" {
		bind = net.JoinHostPort(r.bindHost, "0")
	}
	if bind != "" {
		var err error
		laddr, err = net.ResolveUDPAddr("udp", bind)
		if err != nil {
			return nil, fmt.Errorf("netrun: bind address for %s: %w", id, err)
		}
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("netrun: bind %s: %w", id, err)
	}
	nn := &netNode{id: id, node: r.compiled.NewNode(id, r.opts), conn: conn}
	r.nodes[id] = nn
	r.bookMu.Lock()
	r.book[id] = conn.LocalAddr().(*net.UDPAddr)
	r.bookMu.Unlock()
	return nn, nil
}

// AddNode adopts a node into the live runner: it binds a socket, adds
// the node to the local set and the address book, and — if the runner
// has started — launches its receive loop immediately. The node starts
// empty; seed it through ImportNode and/or Seed.
func (r *Runner) AddNode(id, bind string) error {
	r.nodesMu.Lock()
	defer r.nodesMu.Unlock()
	if _, ok := r.nodes[id]; ok {
		return fmt.Errorf("netrun: node %q already hosted", id)
	}
	nn, err := r.bindNode(id, bind)
	if err != nil {
		return err
	}
	if r.durDir != "" {
		// An adopted node starts from the state its export will import,
		// not from whatever a stale directory of a past owner holds.
		if _, err := r.attachStore(nn, true); err != nil {
			r.dropNodeLocked(nn)
			return err
		}
	}
	if r.started {
		r.wg.Add(1)
		go r.receiveLoop(nn)
	}
	return nil
}

// RemoveNode releases a node from the live runner: its socket closes
// (the receive loop exits), and the node leaves the local set and the
// address book. Its links, and every other local node's link to it, are
// dropped with their credit. Datagrams already bound for the node are
// dropped by the closed socket — the stale-epoch fence covers the ones
// that chase the node to its new home. Export the node's state first
// (ExportState) if it is migrating.
func (r *Runner) RemoveNode(id string) error {
	r.nodesMu.Lock()
	defer r.nodesMu.Unlock()
	nn, ok := r.nodes[id]
	if !ok {
		return fmt.Errorf("netrun: node %q not hosted", id)
	}
	r.dropNodeLocked(nn)
	return nil
}

// dropNodeLocked removes a node from the live sets and destroys its
// durable store: the node is leaving this runner (released to another
// shard, or a failed adoption), so a local on-disk copy of its state
// must not resurrect on the next restart. Caller holds nodesMu.
func (r *Runner) dropNodeLocked(nn *netNode) {
	nn.closed.Store(true)
	nn.conn.Close()
	delete(r.nodes, nn.id)
	r.bookMu.Lock()
	addr := addrPort(r.book[nn.id])
	delete(r.book, nn.id)
	r.bookMu.Unlock()
	nn.sendMu.Lock()
	nn.gone = true
	r.dropLinksLocked(nn, func(*link) bool { return true })
	nn.sendMu.Unlock()
	for _, other := range r.nodes {
		other.sendMu.Lock()
		r.dropLinksLocked(other, func(l *link) bool { return l.peer == addr })
		other.sendMu.Unlock()
	}
	nn.mu.Lock()
	if nn.dur != nil {
		nn.node.SetJournal(nil)
		nn.dur.Destroy()
		nn.dur = nil
	}
	nn.mu.Unlock()
}

// ImportNode loads an exported state (ExportState) into a local
// (freshly adopted) node — the restore crash recovery runs, with the
// export as its snapshot and no WAL records, soft state entering with
// its exported remaining lifetimes — and dispatches the resulting
// advertisements to the fleet.
func (r *Runner) ImportNode(id string, state []byte) error {
	nn, ok := r.node(id)
	if !ok {
		return fmt.Errorf("netrun: node %q not hosted", id)
	}
	return r.turn(nn, func() ([]engine.OutDelta, error) {
		outs, err := restore(nn.node, state, nil, nn.node.Now())
		if err == nil {
			nn.seeded = true
		}
		return outs, err
	})
}

// RederiveFor rebuilds the derived state flowing into freshly migrated
// nodes: every local node (except the migrated ones, whose own import
// drain covers their outbound) sweeps its stored state and re-sends the
// derivations homed at a migrated node — one datagram batch per
// destination, reconstructing exact derivation counts there. Hard-state
// duplicates do not re-trigger strands, so this sweep is the only way a
// moved node's inbound views (and the localizer's shipped copies) come
// back.
func (r *Runner) RederiveFor(migrated []string) {
	dsts := make(map[string]bool, len(migrated))
	for _, id := range migrated {
		dsts[id] = true
	}
	for _, nn := range r.localNodes() {
		if dsts[nn.id] {
			continue
		}
		r.turn(nn, func() ([]engine.OutDelta, error) {
			return nn.node.RederiveFor(dsts), nil
		})
	}
}

// SetEpoch installs the membership epoch stamped on outbound data
// datagrams; inbound frames from any other epoch are fenced from then
// on. Every link of the old epoch is dropped with its credit, and the
// new epoch starts every link at seq 1. Safe while the loops are live —
// a re-partition installs the new epoch together with the new address
// book.
func (r *Runner) SetEpoch(e uint64) {
	r.epoch.Store(e)
	for _, nn := range r.localNodes() {
		nn.sendMu.Lock()
		r.linkEpochLocked(nn)
		nn.sendMu.Unlock()
	}
}

// linkEpochLocked returns the epoch nn's links belong to, first
// dropping them (and releasing their credit) if the runner has moved to
// a new one since. Caller holds nn.sendMu.
func (r *Runner) linkEpochLocked(nn *netNode) uint64 {
	if e := r.epoch.Load(); e != nn.linkEpoch {
		r.dropLinksLocked(nn, func(*link) bool { return true })
		nn.linkEpoch = e
	}
	return nn.linkEpoch
}

// dropLinksLocked removes nn's links that match, releasing the credit of
// the frames they still held unacked. Caller holds nn.sendMu.
func (r *Runner) dropLinksLocked(nn *netNode, match func(*link) bool) {
	nn.links = slices.DeleteFunc(nn.links, func(l *link) bool {
		if !match(l) {
			return false
		}
		r.release(int64(l.reset()))
		return true
	})
}

// linkLocked returns nn's link to peer, creating it on first contact.
// Caller holds nn.sendMu and has synced the link epoch.
func (nn *netNode) linkLocked(peer netip.AddrPort) *link {
	for _, l := range nn.links {
		if l.peer == peer {
			return l
		}
	}
	l := newLink(peer)
	nn.links = append(nn.links, l)
	return l
}

// release takes n off the credit, waking WaitQuiescent if that reaches
// zero.
func (r *Runner) release(n int64) {
	if n == 0 || r.credit.Add(-n) != 0 {
		return
	}
	r.zeroMu.Lock()
	if r.zeroWait != nil {
		close(r.zeroWait)
		r.zeroWait = nil
	}
	r.zeroMu.Unlock()
}

// InjectLoss makes the runner drop its next n new outbound data
// datagrams while still counting them as sent — deterministic loss
// injection, repaired by the link layer's retransmission.
func (r *Runner) InjectLoss(n int64) { r.lossBudget.Add(n) }

// node looks up a local node under the set lock.
func (r *Runner) node(id string) (*netNode, bool) {
	r.nodesMu.RLock()
	defer r.nodesMu.RUnlock()
	nn, ok := r.nodes[id]
	return nn, ok
}

// localNodes snapshots the local node set.
func (r *Runner) localNodes() []*netNode {
	r.nodesMu.RLock()
	defer r.nodesMu.RUnlock()
	out := make([]*netNode, 0, len(r.nodes))
	for _, nn := range r.nodes {
		out = append(out, nn)
	}
	return out
}

// SetRemote installs (or replaces) an address-book entry for a node
// hosted outside this runner. Safe to call while the receive loops are
// live; in-flight dispatches see either the old or the new address.
func (r *Runner) SetRemote(id, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("netrun: remote address for %s: %w", id, err)
	}
	r.bookMu.Lock()
	r.book[id] = ua
	r.bookMu.Unlock()
	return nil
}

// Addr returns the UDP address serving an NDlog node (local or remote),
// or nil if the book has no entry.
func (r *Runner) Addr(id string) *net.UDPAddr {
	r.bookMu.RLock()
	defer r.bookMu.RUnlock()
	return r.book[id]
}

// routesOffRunner reports whether the address book names a node this
// runner does not host (the book holds every local node), whose traffic
// is invisible to the credit.
func (r *Runner) routesOffRunner() bool {
	r.nodesMu.RLock()
	defer r.nodesMu.RUnlock()
	r.bookMu.RLock()
	defer r.bookMu.RUnlock()
	return len(r.book) > len(r.nodes)
}

// LocalIDs returns the IDs of the nodes hosted by this runner, sorted.
func (r *Runner) LocalIDs() []string {
	r.nodesMu.RLock()
	out := make([]string, 0, len(r.nodes))
	for id := range r.nodes {
		out = append(out, id)
	}
	r.nodesMu.RUnlock()
	sort.Strings(out)
	return out
}

// Bytes returns the total UDP payload bytes sent.
func (r *Runner) Bytes() int64 { return r.sentB.Load() }

// Messages returns the number of datagrams sent.
func (r *Runner) Messages() int64 { return r.sentM.Load() }

// Activity returns a counter that bumps every time a node drains a batch
// of delivered data datagrams, an injection, a seed, an import or a
// sweep; ack-only frames, duplicates and retransmissions do not move it.
// Control planes compare successive readings to detect idleness across
// processes.
func (r *Runner) Activity() int64 { return r.activity.Load() }

// Stats snapshots the runner's traffic counters.
func (r *Runner) Stats() Stats {
	return Stats{
		SentBytes:    r.sentB.Load(),
		SentMessages: r.sentM.Load(),
		RecvBytes:    r.recvB.Load(),
		RecvMessages: r.recvM.Load(),
		Dropped:      r.dropped.Load(),
		Fenced:       r.fenced.Load(),
		Retransmits:  r.retransmits.Load(),
		Duplicates:   r.duplicates.Load(),
		Reordered:    r.reordered.Load(),
		AckFrames:    r.ackFrames.Load(),
		Drains:       r.drains.Load(),
		Outstanding:  r.credit.Load(),
	}
}

// Start launches one receive loop per local node and seeds every local
// node with its home base facts.
func (r *Runner) Start() {
	r.nodesMu.Lock()
	r.started = true
	for _, nn := range r.nodes {
		r.wg.Add(1)
		go r.receiveLoop(nn)
	}
	r.nodesMu.Unlock()
	r.Seed()
}

// Seed pushes each local node's home base facts and drains, one node
// after another. A node is seeded at most once: a later call seeds only
// nodes adopted since (AddNode), and a node that recovered durable state
// or imported an export already holds its facts. Facts pushed twice
// would count twice, and one deletion would no longer remove them.
func (r *Runner) Seed() {
	for _, nn := range r.localNodes() {
		nn.mu.Lock()
		seeded := nn.seeded
		nn.seeded = true
		nn.mu.Unlock()
		if seeded {
			continue
		}
		r.turn(nn, func() ([]engine.OutDelta, error) {
			for _, f := range engine.HomeFacts(r.prog, nn.id) {
				nn.node.Push(engine.Insert(f))
			}
			return nn.node.Drain(), nil
		})
	}
}

// turn is one drain at nn from outside its receive loop — a seed, an
// injection, an import or a sweep. It holds a unit of credit until the
// drain's output is counted, runs drain under the node lock with the
// node's clock set to the wall clock, and commits the drain's WAL record before any of its output leaves (WAL
// before wire; a crash right after cannot have advertised state it will
// not remember). A drain that fails unlocks the node with nothing
// committed or sent.
func (r *Runner) turn(nn *netNode, drain func() ([]engine.OutDelta, error)) error {
	r.credit.Add(1)
	defer r.release(1)
	nn.mu.Lock()
	nn.node.SetNow(float64(time.Now().UnixNano()) / 1e9)
	outs, err := drain()
	if err != nil {
		nn.mu.Unlock()
		return err
	}
	r.commitDurable(nn)
	r.activity.Add(1)
	r.drains.Add(1)
	r.unlockAndDispatch(nn, outs)
	return nil
}

// unlockAndDispatch ends a drain: it releases the node lock the caller
// holds and sends the drain's output, handing over to the node's send
// lock in between so that no later drain's datagrams can overtake these.
func (r *Runner) unlockAndDispatch(nn *netNode, outs []engine.OutDelta) {
	if len(outs) == 0 {
		nn.mu.Unlock()
		return
	}
	nn.sendMu.Lock()
	nn.mu.Unlock()
	r.dispatch(nn, outs)
	nn.sendMu.Unlock()
}

// readWake caps how long a receive loop blocks in one read, so it
// notices shutdown; the link timers wake it sooner when they are due.
const readWake = 50 * time.Millisecond

// maxBatch bounds how many datagrams one turn of a receive loop reads
// before it drains, so a peer that keeps the socket full cannot hold
// the batch's acks back indefinitely.
const maxBatch = 64

// decodeScratch is the size, in deltas, of a receive loop's decode
// scratch. The array lives on the loop's stack beside its read buffer,
// so what a node retains between datagrams is bounded by construction: a
// datagram carrying more deltas decodes into an array of its own, which
// it leaves to the collector.
const decodeScratch = 64

// batch is one turn of a receive loop: open once a frame has been
// accepted, from when the loop takes the batch's unit of credit and the
// node lock until it drains; pushed once a frame has given the node
// deltas. scratch is the loop's decode scratch.
type batch struct {
	open, pushed bool
	scratch      []engine.Delta
}

// receiveLoop serves nn's socket a batch at a time: a blocking read,
// then every datagram the probe finds already queued, up to maxBatch, all
// into the one read buffer; then one drain for the lot. A batch of one is
// a socket that was empty behind its first datagram.
func (r *Runner) receiveLoop(nn *netNode) {
	defer r.wg.Done()
	buf := make([]byte, 64<<10)
	var decode [decodeScratch]engine.Delta
	queued := newProbe(nn.conn)
	for {
		nn.conn.SetReadDeadline(r.born.Add(r.tick(nn, r.clock())))
		n, from, err := nn.conn.ReadFromUDPAddrPort(buf)
		select {
		case <-r.stop:
			return
		default:
		}
		if err != nil {
			if nn.closed.Load() {
				return // node released: its socket is gone for good
			}
			continue // deadline or transient error; keep serving
		}
		b := batch{scratch: decode[:0]}
		r.receive(nn, &b, unmapped(from), buf[:n])
		for k := 1; k < maxBatch && queued.pending(); k++ {
			if k == 1 {
				// A datagram is queued, so these reads never block: the
				// wake-up deadline would only cut the batch short.
				nn.conn.SetReadDeadline(time.Time{})
			}
			if n, from, err = nn.conn.ReadFromUDPAddrPort(buf); err != nil {
				break
			}
			r.receive(nn, &b, unmapped(from), buf[:n])
		}
		r.drainBatch(nn, &b)
	}
}

// clock is the runner's monotonic clock, which link timers run on.
func (r *Runner) clock() time.Duration { return time.Since(r.born) }

// tick runs at every turn of nn's receive loop: it resends due frames,
// sends owed acks from the node's reused ack buffer, and returns when
// the loop must wake next.
func (r *Runner) tick(nn *netNode, now time.Duration) time.Duration {
	wake := now + readWake
	nn.sendMu.Lock()
	defer nn.sendMu.Unlock()
	epoch := r.linkEpochLocked(nn)
	for _, l := range nn.links {
		if f := l.expired(now); f != nil {
			r.retransmits.Add(1)
			r.write(nn, l.peer, f)
		}
		if ack, owed := l.takeAck(); owed {
			nn.ackBuf = appendHeader(nn.ackBuf[:0], header{epoch: epoch, inc: r.inc, ack: ack})
			if _, err := nn.conn.WriteToUDPAddrPort(nn.ackBuf, l.peer); err == nil {
				r.ackFrames.Add(1)
			}
		}
		if l.sent > 0 {
			wake = min(wake, l.queue[0].at+l.rto())
		}
	}
	return wake
}

// receive adds one inbound datagram d from peer to batch b: its ack
// releases credit, and its data is accepted exactly once and in order —
// now, or once the frames before it have arrived — and pushed into the
// node. d may be the loop's read buffer: only held frames are copied out
// of it.
func (r *Runner) receive(nn *netNode, b *batch, peer netip.AddrPort, d []byte) {
	h, payload, ok := parseEnvelope(d)
	if !ok {
		return // not an envelope: drop, like any UDP protocol
	}
	if h.seq != 0 {
		r.recvB.Add(int64(len(d)))
		r.recvM.Add(1)
	}
	nn.sendMu.Lock()
	if h.epoch != r.linkEpochLocked(nn) {
		// Epoch fence: a straggler from another membership view, neither
		// applied nor acked (a sender in a newer epoch resends it).
		nn.sendMu.Unlock()
		if h.seq != 0 {
			r.fenced.Add(1)
		}
		return
	}
	l := nn.linkLocked(peer)
	if h.inc != l.peerInc {
		// A new incarnation of the peer: what the link held belongs to
		// the old one.
		if l.peerInc != 0 {
			r.release(int64(l.reset()))
		}
		l.peerInc = h.inc
	}
	r.release(int64(l.ackTo(h.ack)))
	for f := l.admit(r.clock()); f != nil; f = l.admit(r.clock()) {
		r.transmit(nn, l.peer, f)
	}
	v := dropped
	if h.seq != 0 {
		v = l.accept(h.seq, payload)
	}
	nn.sendMu.Unlock()
	switch v {
	case duplicate:
		r.duplicates.Add(1)
	case heldBack:
		r.reordered.Add(1)
	case acceptNow:
		if !b.open {
			// The batch holds a unit of credit from its first accepted frame
			// until its output is counted, so the credit cannot pass through
			// zero while any consequence of the batch is uncounted.
			r.credit.Add(1)
			nn.mu.Lock()
			b.open = true
		}
		for more := true; more; {
			r.push(nn, b, payload)
			nn.sendMu.Lock()
			payload, more = l.nextHeld()
			nn.sendMu.Unlock()
		}
	}
}

// push decodes one accepted frame's payload into nn's queue. The caller
// holds the node lock: the string table is node state, and the
// copy-on-decode invariant (decoded tuples never alias the buffer) is
// what lets the receive loop reuse its read buffer and decode scratch.
func (r *Runner) push(nn *netNode, b *batch, payload []byte) {
	deltas, _ := engine.DecodeMessageInto(payload, nn.node.Interner(), b.scratch)
	if len(deltas) > 0 {
		nn.node.SetNow(float64(time.Now().UnixNano()) / 1e9)
		for _, d := range deltas {
			nn.node.Push(d)
		}
		b.pushed = true
	}
	// The scratch outlives this frame: drop its tuple references, or the
	// last frame's tuples — and the chunks its retractions were carved
	// from — stay live until the next datagram.
	clear(deltas)
}

// drainBatch ends an open batch: one drain over everything it pushed,
// one WAL commit, then every link's accepted frames become delivered and
// the drain's output leaves. An ack may leave only once the drain has
// committed its WAL record — piggybacked on the drain's own output at
// the earliest, otherwise as one ack-only frame per peer at the loop's
// next tick.
func (r *Runner) drainBatch(nn *netNode, b *batch) {
	if !b.open {
		return
	}
	var outs []engine.OutDelta
	if b.pushed {
		outs = nn.node.Drain()
		// WAL before wire and before ack: a crash right here cannot have
		// advertised, or acknowledged, state it will not remember.
		r.commitDurable(nn)
		r.activity.Add(1)
		r.drains.Add(1)
	}
	nn.sendMu.Lock()
	nn.mu.Unlock()
	for _, l := range nn.links {
		l.commit()
	}
	r.dispatch(nn, outs)
	nn.sendMu.Unlock()
	r.release(1)
}

// Inject delivers a delta to a local node from outside (e.g. a link
// update).
func (r *Runner) Inject(id string, d engine.Delta) error {
	nn, ok := r.node(id)
	if !ok {
		return fmt.Errorf("netrun: unknown node %q", id)
	}
	return r.turn(nn, func() ([]engine.OutDelta, error) {
		nn.node.Push(d)
		return nn.node.Drain(), nil
	})
}

// dispatchMaxPayload caps a batched datagram's estimated payload so it
// stays well under the 64 KiB UDP limit (and the receive buffer).
const dispatchMaxPayload = 32 << 10

// dispatch batches one drain's outbound deltas per destination — one
// datagram carries every tuple bound for the same peer, mirroring the
// simulator's per-pump batching — chunked so no datagram exceeds
// dispatchMaxPayload. Each datagram is the next frame of the node's link
// to the peer: queued for retransmission and counted in the credit
// until acked. Destinations absent from the book count as dropped. The
// caller holds the node's send lock.
func (r *Runner) dispatch(nn *netNode, outs []engine.OutDelta) {
	if len(outs) == 0 || nn.gone {
		return
	}
	// A drain's output is sorted by destination, so each peer is one
	// contiguous run; the recovery paths hand in several drains (or a
	// sweep's output) end to end, which a stable sort brings to the same
	// shape with every peer's deltas still in order.
	byDst := func(a, b engine.OutDelta) int { return strings.Compare(a.Dst, b.Dst) }
	if !slices.IsSortedFunc(outs, byDst) {
		slices.SortStableFunc(outs, byDst)
	}
	epoch := r.linkEpochLocked(nn)
	now := r.clock()
	for len(outs) > 0 {
		dstID := outs[0].Dst
		end := 1
		for end < len(outs) && outs[end].Dst == dstID {
			end++
		}
		deltas := outs[:end]
		outs = outs[end:]
		dst := r.Addr(dstID)
		if dst == nil {
			r.dropped.Add(int64(len(deltas)))
			continue
		}
		peer := addrPort(dst)
		l := nn.linkLocked(peer)
		for len(deltas) > 0 {
			n, size := 0, 0
			for n < len(deltas) {
				sz := 1 + val.EncodedSize(deltas[n].Delta.Tuple)
				if n > 0 && size+sz > dispatchMaxPayload {
					break
				}
				size += sz
				n++
			}
			// One allocation per frame: the buffer fits the envelope, the
			// batch header (a kind byte and a count) and the deltas, so
			// the engine appends the payload in place.
			seq, ack := l.stamp()
			frame := make([]byte, 0, maxHeader+1+binary.MaxVarintLen64+size)
			frame = appendHeader(frame, header{epoch: epoch, inc: r.inc, seq: seq, ack: ack})
			frame = engine.AppendOutDeltas(frame, deltas[:n])
			deltas = deltas[n:]
			r.credit.Add(1)
			if l.queueFrame(frame, now) {
				r.transmit(nn, peer, frame)
			}
		}
	}
}

// transmit puts a data frame on the wire for the first time, unless
// injected loss eats it (it is counted as sent either way).
func (r *Runner) transmit(nn *netNode, peer netip.AddrPort, frame []byte) {
	if r.lossBudget.Load() > 0 && r.lossBudget.Add(-1) >= 0 {
		r.sentB.Add(int64(len(frame)))
		r.sentM.Add(1)
		return
	}
	r.write(nn, peer, frame)
}

// write puts one data frame on the wire — a first transmission or a
// retransmission — and counts it. A failed write is a lost datagram:
// the frame stays queued and the retransmission timer resends it.
func (r *Runner) write(nn *netNode, peer netip.AddrPort, frame []byte) {
	if _, err := nn.conn.WriteToUDPAddrPort(frame, peer); err == nil {
		r.sentB.Add(int64(len(frame)))
		r.sentM.Add(1)
	}
}

// WaitQuiescent blocks until the runner reaches its fixpoint, or until
// timeout; it reports which. When the address book routes only to nodes
// this runner hosts, that is the moment the credit reaches zero, and the
// decrement that gets there wakes the wait. idle matters only when the
// book routes to nodes other runners host, whose traffic is invisible to
// this credit: then the credit must also sit at zero with no activity
// for the idle window. Across processes, quiescence is the coordinator's
// job (internal/shard).
func (r *Runner) WaitQuiescent(idle, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	last, since := r.activity.Load(), time.Now()
	for {
		if !r.waitCredit(deadline) {
			return false
		}
		if !r.routesOffRunner() {
			return true
		}
		if a := r.activity.Load(); a != last {
			last, since = a, time.Now()
		} else if time.Since(since) >= idle {
			return true
		}
		if !time.Now().Before(deadline) {
			return false
		}
		time.Sleep(idle / 4)
	}
}

// waitCredit blocks until the credit is zero or the deadline passes.
func (r *Runner) waitCredit(deadline time.Time) bool {
	for r.credit.Load() != 0 {
		r.zeroMu.Lock()
		if r.zeroWait == nil {
			r.zeroWait = make(chan struct{})
		}
		wait := r.zeroWait
		r.zeroMu.Unlock()
		if r.credit.Load() == 0 {
			return true
		}
		timer := time.NewTimer(time.Until(deadline))
		select {
		case <-wait:
			timer.Stop()
		case <-timer.C:
			return r.credit.Load() == 0
		}
	}
	return true
}

// Tuples gathers a predicate across the local nodes (snapshot under
// each node's lock).
func (r *Runner) Tuples(pred string) []string {
	var out []string
	for _, nn := range r.localNodes() {
		nn.mu.Lock()
		for _, t := range nn.node.Tuples(pred) {
			out = append(out, t.Key())
		}
		nn.mu.Unlock()
	}
	return out
}

// TupleValues gathers a predicate's tuples across the local nodes as
// values (copies are not taken: callers must treat them as immutable,
// per the engine's aliasing rules).
func (r *Runner) TupleValues(pred string) []val.Tuple {
	var out []val.Tuple
	for _, nn := range r.localNodes() {
		nn.mu.Lock()
		out = append(out, nn.node.Tuples(pred)...)
		nn.mu.Unlock()
	}
	return out
}

// NodeTuples returns one local node's tuples for a predicate, as keys.
func (r *Runner) NodeTuples(id, pred string) []string {
	nn, ok := r.node(id)
	if !ok {
		return nil
	}
	nn.mu.Lock()
	defer nn.mu.Unlock()
	var out []string
	for _, t := range nn.node.Tuples(pred) {
		out = append(out, t.Key())
	}
	return out
}

// Close shuts down all sockets, waits for the receive loops, and
// commits whatever the durable stores still hold pending before it
// closes them.
func (r *Runner) Close() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	for _, nn := range r.localNodes() {
		nn.conn.Close()
	}
	r.wg.Wait()
	for _, nn := range r.localNodes() {
		nn.mu.Lock()
		if nn.dur != nil {
			r.commitDurable(nn)
			nn.dur.Close()
			nn.dur = nil
		}
		nn.mu.Unlock()
	}
}

// Package netrun executes an NDlog deployment over real UDP sockets
// (standard library net only). It is the bridge from the simulated
// evaluation environment to an actual networked one: every NDlog node
// gets its own socket and goroutine, derived tuples travel as UDP
// datagrams encoded exactly like the simulator's messages, and
// quiescence is detected by a cluster-wide idle timeout (a real network
// has no global event queue to observe).
//
// A Runner hosts a set of *local* nodes, but its address book may map
// further node IDs to sockets owned by other runners — in another
// goroutine or another OS process entirely (see internal/shard for the
// multi-process deployment built on this). Tuples bound for a node the
// book does not know are counted as dropped, exactly like a datagram
// with no route. The local set is elastic: AddNode and RemoveNode
// adopt and release nodes on a live socket set, and ExportNode /
// ImportNode move a node's engine state for migration.
//
// Every data datagram carries the runner's membership epoch
// (SetEpoch): a frame from a different epoch is fenced — counted,
// dropped, never applied — which is what makes a live re-partition
// safe against stragglers from the previous configuration.
//
// Ownership: a Runner owns its engine nodes and their sockets. Engine
// nodes are single-threaded, so every Push/Drain/Tuples access happens
// under the per-node mutex; the receive loops rely on the engine's
// copy-on-decode invariant (decoded tuples never alias the read buffer)
// to reuse one buffer per loop. A drain's datagrams leave under the
// node's send lock, taken before the node lock is released, so each
// link carries a node's drains in the order they ran (PSN assumes FIFO
// links) without the node lock being held across socket writes. The
// address book and the node set are guarded separately so remote entries
// and live adoptions can land while the loops are running.
//
// The default runner binds loopback addresses, so tests exercise
// genuine socket I/O without leaving the machine. Message loss and
// reordering are possible exactly as with real UDP; the engine's PSN
// evaluation and soft-state options behave as they would in deployment.
package netrun

import (
	"encoding/binary"
	"fmt"
	"net"
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

	// lossBudget > 0 makes dispatch drop that many outbound datagrams
	// (still counted as sent) — deterministic loss injection for testing
	// the control plane's ledger fallback.
	lossBudget atomic.Int64

	activity atomic.Int64 // bumps on every processed datagram, injection, or seed
	sentB    atomic.Int64
	sentM    atomic.Int64
	recvB    atomic.Int64
	recvM    atomic.Int64
	dropped  atomic.Int64 // deltas bound for nodes absent from the book
	fenced   atomic.Int64 // datagrams dropped for carrying a stale epoch

	// sentTo holds the per-destination datagram tallies of nodes that
	// have left this runner (dropNodeLocked folds a node's netNode.sentTo
	// in here), so SentTo keeps counting what they sent.
	sentToMu sync.Mutex
	sentTo   map[string]int64

	wg   sync.WaitGroup
	stop chan struct{}
}

// Stats is a snapshot of a runner's traffic counters, exported to the
// shard control plane and the metrics harness.
type Stats struct {
	SentBytes    int64 // UDP payload bytes sent
	SentMessages int64 // datagrams sent
	RecvBytes    int64 // UDP payload bytes received
	RecvMessages int64 // datagrams received
	Dropped      int64 // outbound deltas with no address-book entry
	Fenced       int64 // inbound datagrams fenced for a stale epoch
}

type netNode struct {
	id   string
	node *engine.Node
	conn *net.UDPConn
	mu   sync.Mutex // guards node (engine nodes are single-threaded)
	// sendMu orders this node's outbound datagrams: whoever drained the
	// node takes it while still holding mu and releases it after
	// dispatching, so sends happen in drain order while the next drain
	// already runs. Ordered strictly after mu; nothing is locked under it
	// but the book and ledger leaves dispatch takes.
	sendMu sync.Mutex
	// sentTo counts the datagrams this node sent per destination node ID
	// — the per-destination half of the sent==recv ledger, which lets a
	// control plane attribute loss to the shard that failed to receive.
	// Guarded by sendMu, which every dispatch already holds; sentGone
	// marks a dropped node whose tally has moved to Runner.sentTo.
	sentTo   map[string]int64
	sentGone bool
	// closed marks a released node: its receive loop exits on the next
	// read error instead of treating the closed socket as transient.
	closed atomic.Bool

	// scratch is the node's reusable decode buffer: receive decodes each
	// datagram into it (engine.DecodeMessageInto) instead of allocating a
	// fresh batch per message. Guarded by mu; safe to reuse because
	// decoded tuples never alias either the read buffer or this slice
	// once pushed.
	scratch []engine.Delta

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
		// An adopted node starts from the state its bundle will import,
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
// address book. Datagrams already bound for the node are dropped by the
// closed socket — the stale-epoch fence covers the ones that chase the
// node to its new home. Export the node's state first (ExportNode) if
// it is migrating.
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
	delete(r.book, nn.id)
	r.bookMu.Unlock()
	nn.sendMu.Lock()
	r.sentToMu.Lock()
	if r.sentTo == nil {
		r.sentTo = map[string]int64{}
	}
	for id, n := range nn.sentTo {
		r.sentTo[id] += n
	}
	r.sentToMu.Unlock()
	nn.sentTo, nn.sentGone = nil, true
	nn.sendMu.Unlock()
	nn.mu.Lock()
	if nn.dur != nil {
		nn.node.SetJournal(nil)
		nn.dur.Destroy()
		nn.dur = nil
	}
	nn.mu.Unlock()
}

// ExportNode snapshots a local node's migratable state (engine
// EncodeState payload): base facts with counts plus soft state with
// remaining TTLs. The engine view only — traffic counters stay behind.
func (r *Runner) ExportNode(id string) ([]byte, error) {
	nn, ok := r.node(id)
	if !ok {
		return nil, fmt.Errorf("netrun: node %q not hosted", id)
	}
	nn.mu.Lock()
	defer nn.mu.Unlock()
	nn.node.SetNow(float64(time.Now().UnixNano()) / 1e9)
	return engine.EncodeState(nn.node.Export()), nil
}

// ImportNode loads an exported state into a local (freshly adopted)
// node, re-derives the local closure (engine Rederive — the DRed
// sweep), clamps the imported soft state back to its exported
// remaining lifetimes, and dispatches the resulting advertisements to
// the fleet. The blob is either a bare engine state (EncodeState) or a
// durable migration bundle (snapshot + WAL tail, durable.EncodeBundle)
// — the magic byte decides.
func (r *Runner) ImportNode(id string, state []byte) error {
	nn, ok := r.node(id)
	if !ok {
		return fmt.Errorf("netrun: node %q not hosted", id)
	}
	var (
		snap    []byte
		records [][]byte
		err     error
	)
	if durable.IsBundle(state) {
		if snap, records, err = durable.DecodeBundle(state); err != nil {
			return err
		}
	} else {
		snap = state
	}
	var st *engine.NodeState
	if len(snap) > 0 {
		if st, err = engine.DecodeState(snap); err != nil {
			return err
		}
	}
	nn.mu.Lock()
	now := float64(time.Now().UnixNano()) / 1e9
	nn.node.SetNow(now)
	var outs []engine.OutDelta
	if st != nil {
		nn.node.ImportState(st)
		outs = nn.node.Drain()
		// Clamp before replaying the WAL tail: a replayed soft-state
		// refresh then extends lifetimes legitimately, instead of being
		// clamped back to what the snapshot remembered.
		nn.node.ApplyImportedTTLs(st)
	}
	for _, rec := range records {
		recNow, deltas, derr := decodeWALRecord(rec, nn.node.Interner())
		if derr != nil {
			nn.mu.Unlock()
			return derr
		}
		// Replay under the record's virtual clock so soft-state TTLs land
		// where the source node had them, clamped so a skewed source
		// cannot push this node's clock forward.
		if recNow < now {
			nn.node.SetNow(recNow)
		}
		for _, d := range deltas {
			nn.node.Push(d)
		}
		outs = append(outs, nn.node.Drain()...)
	}
	nn.node.SetNow(now)
	nn.node.Rederive()
	outs = append(outs, nn.node.Drain()...)
	r.commitDurable(nn)
	r.activity.Add(1)
	r.unlockAndDispatch(nn, outs)
	return nil
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
	r.drainDispatch(func(nn *netNode) []engine.OutDelta {
		if dsts[nn.id] {
			return nil
		}
		nn.node.SetNow(float64(time.Now().UnixNano()) / 1e9)
		outs := nn.node.RederiveFor(dsts)
		if len(outs) > 0 {
			r.activity.Add(1)
		}
		return outs
	})
}

// SetEpoch installs the membership epoch stamped on outbound data
// datagrams; inbound frames from any other epoch are fenced from then
// on. Safe while the loops are live — a re-partition installs the new
// epoch together with the new address book.
func (r *Runner) SetEpoch(e uint64) { r.epoch.Store(e) }

// Epoch returns the current membership epoch.
func (r *Runner) Epoch() uint64 { return r.epoch.Load() }

// InjectLoss makes the runner drop its next n outbound data datagrams
// while still counting them as sent — deterministic loss injection for
// exercising the control plane's unbalanced-ledger fallback.
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

// forEachLocal applies fn to every local node, fanning the walk out
// across a bounded worker pool when Options.Parallelism resolves above
// 1. Nodes are independent here: each has its own mutex, the address
// book has its own lock, every traffic counter is atomic, and UDPConn
// writes are safe concurrently — so fn bodies that lock the node,
// drain, commit the WAL, and dispatch preserve WAL-before-wire per
// node exactly as the sequential walk did.
func (r *Runner) forEachLocal(fn func(*netNode)) {
	nns := r.localNodes()
	workers := r.opts.Workers()
	if workers > len(nns) {
		workers = len(nns)
	}
	if workers <= 1 {
		for _, nn := range nns {
			fn(nn)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(nns) {
					return
				}
				fn(nns[j])
			}
		}()
	}
	wg.Wait()
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

// Activity returns a counter that bumps every time a node processes a
// datagram or an injection. Control planes compare successive readings
// to detect idleness across processes.
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

// Seed pushes each local node's home base facts and drains. Calling it
// again re-advertises the facts — the soft-state refresh story, and the
// recovery path a control plane uses when datagrams were lost. Seeding
// counts as activity, so an in-progress recovery holds off quiescence
// detection. The per-node seed drains run on the runner's worker pool
// (Options.Parallelism) — each node still drains under its own lock.
func (r *Runner) Seed() {
	r.drainDispatch(func(nn *netNode) []engine.OutDelta {
		nn.node.SetNow(float64(time.Now().UnixNano()) / 1e9)
		for _, f := range engine.HomeFacts(r.prog, nn.id) {
			nn.node.Push(engine.Insert(f))
		}
		r.activity.Add(1)
		return nn.node.Drain()
	})
}

// drainDispatch runs drain (called with the node lock held) over every
// local node on the worker pool, commits each node's WAL record and
// dispatches its output.
func (r *Runner) drainDispatch(drain func(*netNode) []engine.OutDelta) {
	r.forEachLocal(func(nn *netNode) {
		nn.mu.Lock()
		outs := drain(nn)
		r.commitDurable(nn)
		r.unlockAndDispatch(nn, outs)
	})
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

// envMagic opens every data datagram:
//
//	0x7E epoch(uvarint) payload
//
// The byte is disjoint from the engine's message kinds and the shard
// control-plane kinds, so a frame delivered to the wrong socket is
// rejected as corrupt rather than misread.
const envMagic = 0x7E

// parseEnvelope splits one inbound frame into epoch and payload. ok is
// false for anything that is not a data envelope.
func parseEnvelope(b []byte) (epoch uint64, payload []byte, ok bool) {
	if len(b) < 2 || b[0] != envMagic {
		return 0, nil, false
	}
	e, sz := binary.Uvarint(b[1:])
	if sz <= 0 {
		return 0, nil, false
	}
	return e, b[1+sz:], true
}

func (r *Runner) receiveLoop(nn *netNode) {
	defer r.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		// A short read deadline lets the loop notice shutdown.
		nn.conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		n, _, err := nn.conn.ReadFromUDP(buf)
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
		epoch, payload, ok := parseEnvelope(buf[:n])
		if !ok {
			continue // not a data envelope: drop, like any UDP protocol
		}
		if epoch != r.epoch.Load() {
			// Epoch fence: a straggler from another membership view. It
			// arrived, so the sent==recv ledger counts it (nothing is in
			// flight), but its tuples are dropped — the rebalance protocol
			// reseeds on resume, which re-derives anything fenced here.
			r.fenced.Add(1)
			r.recvB.Add(int64(n))
			r.recvM.Add(1)
			continue
		}
		r.receive(nn, payload, int64(n))
	}
}

// receive decodes one datagram (wire bytes on the socket) and drains the
// node over its deltas. The payload may alias the caller's read buffer
// (decode copies).
func (r *Runner) receive(nn *netNode, payload []byte, wire int64) {
	// Decode under the node lock: the string table is node state, and the
	// copy-on-decode invariant (decoded tuples never alias the buffer)
	// is what lets the receive loop reuse its read buffer and this scratch.
	nn.mu.Lock()
	deltas, err := engine.DecodeMessageInto(payload, nn.node.Interner(), nn.scratch[:0])
	if err != nil {
		nn.mu.Unlock()
		return // corrupt datagram: drop, like any UDP protocol
	}
	nn.scratch = deltas[:0]
	// Count only decodable datagrams: the receive ledger must mirror
	// the send ledger (which counts engine messages), so a stray or
	// corrupt datagram cannot unbalance cross-process quiescence
	// accounting forever.
	r.recvB.Add(wire)
	r.recvM.Add(1)
	if len(deltas) == 0 {
		nn.mu.Unlock()
		return
	}
	nn.node.SetNow(float64(time.Now().UnixNano()) / 1e9)
	for _, d := range deltas {
		nn.node.Push(d)
	}
	outs := nn.node.Drain()
	// WAL before wire: the drain's effects are durable before any
	// derived datagram leaves, so a crash right here cannot have
	// advertised state it will not remember.
	r.commitDurable(nn)
	r.activity.Add(1)
	r.unlockAndDispatch(nn, outs)
}

// Inject delivers a delta to a local node from outside (e.g. a link
// update).
func (r *Runner) Inject(id string, d engine.Delta) error {
	nn, ok := r.node(id)
	if !ok {
		return fmt.Errorf("netrun: unknown node %q", id)
	}
	nn.mu.Lock()
	nn.node.SetNow(float64(time.Now().UnixNano()) / 1e9)
	nn.node.Push(d)
	outs := nn.node.Drain()
	r.commitDurable(nn)
	r.activity.Add(1)
	r.unlockAndDispatch(nn, outs)
	return nil
}

// dispatchMaxPayload caps a batched datagram's estimated payload so it
// stays well under the 64 KiB UDP limit (and the receive buffer).
const dispatchMaxPayload = 32 << 10

// dispatch batches one drain's outbound deltas per destination — one
// datagram carries every tuple bound for the same peer, mirroring the
// simulator's per-pump batching — chunked so no datagram exceeds
// dispatchMaxPayload. Destinations absent from the book count as
// dropped. The caller holds the node's send lock.
func (r *Runner) dispatch(nn *netNode, outs []engine.OutDelta) {
	// A drain's output is sorted by destination, so each peer is one
	// contiguous run; the recovery paths hand in several drains (or a
	// sweep's output) end to end, which a stable sort brings to the same
	// shape with every peer's deltas still in order.
	byDst := func(a, b engine.OutDelta) int { return strings.Compare(a.Dst, b.Dst) }
	if !slices.IsSortedFunc(outs, byDst) {
		slices.SortStableFunc(outs, byDst)
	}
	epoch := r.epoch.Load()
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
		for len(deltas) > 0 {
			n, size := 0, 0
			for n < len(deltas) {
				size += 1 + val.EncodedSize(deltas[n].Delta.Tuple)
				if n > 0 && size > dispatchMaxPayload {
					break
				}
				n++
			}
			// Envelope: epoch tag first, engine payload appended in place
			// (no second copy of the payload).
			frame := binary.AppendUvarint([]byte{envMagic}, epoch)
			frame = engine.AppendOutDeltas(frame, deltas[:n])
			deltas = deltas[n:]
			if r.lossBudget.Load() > 0 && r.lossBudget.Add(-1) >= 0 {
				// Injected loss: the datagram is counted as sent (the
				// ledger must see it) but never hits the wire.
				r.countSent(nn, dstID, int64(len(frame)))
				continue
			}
			if _, err := nn.conn.WriteToUDP(frame, dst); err == nil {
				r.countSent(nn, dstID, int64(len(frame)))
			}
		}
	}
}

// countSent records one datagram nn sent in the ledger, including the
// per-destination tally on the sending node (the caller holds its send
// lock). The total is bumped first: see SentTo for the read order that
// makes the two comparable.
func (r *Runner) countSent(nn *netNode, dstID string, bytes int64) {
	r.sentB.Add(bytes)
	r.sentM.Add(1)
	if nn.sentGone {
		// A drain that outlived its node's removal: its tally already moved.
		r.sentToMu.Lock()
		r.sentTo[dstID]++
		r.sentToMu.Unlock()
		return
	}
	if nn.sentTo == nil {
		nn.sentTo = map[string]int64{}
	}
	nn.sentTo[dstID]++
}

// SentTo snapshots the per-destination datagram counts. Keys are NDlog
// node IDs; the control plane folds them onto owning shards to find
// which shard's receive ledger is short after loss.
//
// Every datagram is counted in Stats().SentMessages before it is counted
// here, so a concurrent reader that wants "sum of tallies <= total sent"
// must call SentTo first and Stats second; the other order can observe
// tallies the earlier total snapshot has not seen. At quiescence the two
// are equal in either order.
func (r *Runner) SentTo() map[string]int64 {
	// The node set is held still for the whole merge: a node dropped
	// half-way would be counted twice or not at all.
	r.nodesMu.RLock()
	defer r.nodesMu.RUnlock()
	out := map[string]int64{}
	for _, nn := range r.nodes {
		nn.sendMu.Lock()
		for id, n := range nn.sentTo {
			out[id] += n
		}
		nn.sendMu.Unlock()
	}
	r.sentToMu.Lock()
	for id, n := range r.sentTo {
		out[id] += n
	}
	r.sentToMu.Unlock()
	return out
}

// WaitQuiescent blocks until no local node has processed a datagram for
// idle, or until timeout. It reports whether the runner went idle. In a
// sharded deployment this only observes the local slice; cross-process
// quiescence is the coordinator's job (internal/shard).
func (r *Runner) WaitQuiescent(idle, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	last := r.activity.Load()
	lastChange := time.Now()
	for time.Now().Before(deadline) {
		time.Sleep(idle / 4)
		cur := r.activity.Load()
		if cur != last {
			last = cur
			lastChange = time.Now()
			continue
		}
		if time.Since(lastChange) >= idle {
			return true
		}
	}
	return false
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
// flushes the durable stores (a clean shutdown loses nothing even
// under the lazier sync policies).
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

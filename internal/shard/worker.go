package shard

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"ndlog/internal/netrun"
	"ndlog/internal/val"
)

// Protocol timing. The control plane is chatty-but-tiny: reports are
// one datagram each, so a short period costs nothing and keeps the
// coordinator's view fresh.
const (
	helloRetry   = 100 * time.Millisecond // hello resend until book arrives
	readyRetry   = 100 * time.Millisecond // ready resend until start arrives
	idlePeriod   = 50 * time.Millisecond  // activity report period
	controlRead  = 50 * time.Millisecond  // control socket read deadline
	tupleChunkSz = 32 << 10               // gather response chunk cap (bytes)
)

// WorkerConfig configures one shard process.
type WorkerConfig struct {
	// Manifest is the deployment description (shared by every shard).
	Manifest *Manifest
	// ShardID selects this process's slice of the manifest.
	ShardID int
	// Coord is the coordinator's control address ("host:port"). Empty
	// means no coordinator: the worker installs the manifest's static
	// book, seeds immediately, and runs until the process is killed —
	// the fully static multi-machine deployment mode.
	Coord string
	// CoordTimeout bounds coordinator silence: the handshake phases
	// must complete within it, and once serving, some coordinator
	// frame (pongs ack every idle report, so silence means death) must
	// arrive within it or the worker exits with an error instead of
	// running orphaned forever. ≤0 means the 60s default.
	CoordTimeout time.Duration
	// Logf, when non-nil, receives progress lines (flag-gated by cmds).
	Logf func(format string, args ...any)
	// lossFirst > 0 drops the worker's first lossFirst outbound data
	// datagrams while still counting them as sent: deterministic fault
	// injection for tests, repaired by the link layer's retransmission
	// like any other loss.
	lossFirst int
}

func (c *WorkerConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// RunWorker hosts one shard: it binds the shard's node sockets, joins
// the coordinator handshake (hello → book → ready → start), seeds its
// home facts, reports activity until told to stop, and answers gather
// queries. It blocks until the stop frame arrives (or forever in
// static mode) and returns after a clean teardown.
func RunWorker(cfg WorkerConfig) error {
	m := cfg.Manifest
	if err := m.Validate(); err != nil {
		return err
	}
	spec := m.Shard(cfg.ShardID)
	if spec == nil {
		return fmt.Errorf("shard: no shard %d in manifest", cfg.ShardID)
	}
	prog, err := m.ParseProgram()
	if err != nil {
		return err
	}
	opts, err := m.Options.Engine()
	if err != nil {
		return err
	}
	dataDir, durOpts, err := m.Options.Durable()
	if err != nil {
		return err
	}
	shardDir := ""
	// A copy: adopt/release mutate the worker's node set, and the
	// manifest is shared (read-only after Validate).
	nodes := make(map[string]string, len(spec.Nodes))
	for id, addr := range spec.Nodes {
		nodes[id] = addr
	}
	if dataDir != "" {
		shardDir = filepath.Join(dataDir, fmt.Sprintf("shard-%d", spec.ID))
		saved, err := loadNodeSet(shardDir)
		if err != nil {
			return err
		}
		if saved != nil {
			// A previous incarnation ran here: its persisted node set —
			// not the manifest's partition, stale after any rebalance —
			// names the durable stores to recover.
			nodes = saved
		}
	}
	r, err := netrun.NewConfigured(prog, nodes, netrun.Config{BindHost: spec.Host}, opts)
	if err != nil {
		return err
	}
	defer r.Close()
	if shardDir != "" {
		warm, err := r.EnableDurability(shardDir, durOpts)
		if err != nil {
			return err
		}
		if err := saveNodeSet(shardDir, nodes); err != nil {
			return err
		}
		if warm > 0 {
			cfg.logf("shard %d: recovered %d warm nodes from %s", spec.ID, warm, shardDir)
		}
	}
	if cfg.lossFirst > 0 {
		r.InjectLoss(int64(cfg.lossFirst))
	}

	// Install the static book entries of every other shard up front;
	// ephemeral ("") entries are learned from the coordinator.
	for i := range m.Shards {
		other := &m.Shards[i]
		if other.ID == spec.ID {
			continue
		}
		for id, addr := range other.Nodes {
			if addr == "" {
				continue
			}
			if err := r.SetRemote(id, addr); err != nil {
				return err
			}
		}
	}

	if cfg.Coord == "" {
		// Static mode: no control plane, so there is no handshake to
		// resolve ephemeral addresses — every off-shard node must be
		// pinned or the book would silently drop its tuples.
		for i := range m.Shards {
			if m.Shards[i].ID == spec.ID {
				continue
			}
			for id, addr := range m.Shards[i].Nodes {
				if addr == "" {
					return fmt.Errorf("shard: static mode (no -coord) needs a pinned address for node %q (shard %d)", id, m.Shards[i].ID)
				}
			}
		}
		cfg.logf("shard %d: static mode, %d nodes", spec.ID, len(spec.Nodes))
		r.Start()
		select {}
	}

	if cfg.CoordTimeout <= 0 {
		cfg.CoordTimeout = 60 * time.Second
	}
	coordAddr, err := net.ResolveUDPAddr("udp", cfg.Coord)
	if err != nil {
		return fmt.Errorf("shard: coordinator address: %w", err)
	}
	// Wildcard bind: the coordinator may be on another machine, and the
	// reply path is learned from this socket's observed source address.
	ctl, err := net.ListenUDP("udp", &net.UDPAddr{})
	if err != nil {
		return fmt.Errorf("shard: bind control socket: %w", err)
	}
	defer ctl.Close()

	w := &worker{
		cfg: cfg, spec: spec, runner: r, ctl: ctl, coord: coordAddr,
		shardDir:     shardDir,
		nodes:        nodes,
		releaseCache: map[uint64][]byte{},
		lastExport:   map[string][]byte{},
		adoptBuf:     map[uint64][][]byte{},
		adoptDone:    map[uint64]string{},
		stash:        map[string][]byte{},
		rederived:    map[uint64]bool{},
	}
	return w.run()
}

// loadNodeSet reads the node set a previous incarnation of this shard
// persisted next to its durable stores; nil when none exists yet.
func loadNodeSet(dir string) (map[string]string, error) {
	b, err := os.ReadFile(filepath.Join(dir, "nodes.json"))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var nodes map[string]string
	if err := json.Unmarshal(b, &nodes); err != nil {
		return nil, fmt.Errorf("shard: corrupt node set %s: %w", filepath.Join(dir, "nodes.json"), err)
	}
	return nodes, nil
}

// saveNodeSet atomically persists the shard's current node → bind-addr
// map, so a respawn after a rebalance rebinds the nodes this shard
// actually hosts.
func saveNodeSet(dir string, nodes map[string]string) error {
	b, err := json.MarshalIndent(nodes, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, "nodes.json.tmp")
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, "nodes.json"))
}

// worker is the control-plane state of one shard process.
type worker struct {
	cfg    WorkerConfig
	spec   *ShardSpec
	runner *netrun.Runner
	ctl    *net.UDPConn
	coord  *net.UDPAddr

	seq   uint64 // idle report sequence
	epoch uint64 // membership epoch of the installed book
	mark  uint64 // newest report-wave mark a pong has carried

	// shardDir is the shard's durable data directory ("" without
	// durability); nodes is the current node → bind-addr set, persisted
	// there as nodes.json on every adopt/release so a respawn rebinds
	// what this shard actually hosts.
	shardDir string
	nodes    map[string]string

	// Rebalance state. releaseCache holds exported node states by
	// release request id, so a retried release (our state frames were
	// lost) resends the same snapshot instead of re-exporting a node
	// that is already gone; lastExport keeps the newest snapshot per
	// node, serving a re-released node after a failed rebalance retries
	// under a fresh request id. adoptBuf assembles chunked adopt
	// transfers; adoptDone remembers completed adoptions for re-acks;
	// stash holds adopted state until the resume frame says the new
	// epoch is fully installed fleet-wide. The request-keyed maps are
	// pruned at every epoch cutover (a new book proves the exchange
	// that filled them has completed), so rebalance bookkeeping does
	// not grow with deployment lifetime.
	releaseCache map[uint64][]byte
	lastExport   map[string][]byte
	adoptBuf     map[uint64][][]byte
	adoptDone    map[uint64]string
	stash        map[string][]byte
	// rederived remembers completed rederivation sweeps by request id,
	// so a retried rederive re-acks instead of re-inflating counts.
	// Pruned at epoch cutover like the other request-keyed maps.
	rederived map[uint64]bool
}

func (w *worker) send(f frame) {
	w.ctl.WriteToUDP(encodeFrame(f), w.coord)
}

// read waits up to the control read deadline for one frame; ok is
// false on timeout or a corrupt datagram.
func (w *worker) read(buf []byte) (frame, bool) {
	w.ctl.SetReadDeadline(time.Now().Add(controlRead))
	n, _, err := w.ctl.ReadFromUDP(buf)
	if err != nil {
		return frame{}, false
	}
	f, err := decodeFrame(buf[:n])
	if err != nil {
		return frame{}, false
	}
	return f, true
}

// localBook maps this worker's hosted nodes to their data addresses —
// from the runner, not the manifest: after a rebalance or a durable
// respawn the hosted set is the persisted one, and every respawn binds
// fresh ephemeral ports.
func (w *worker) localBook() map[string]string {
	book := map[string]string{}
	for _, id := range w.runner.LocalIDs() {
		book[id] = w.runner.Addr(id).String()
	}
	return book
}

// saveNodes persists the current node set; a failure is logged, not
// fatal — the data path keeps serving, and the stale file costs at
// worst a failed recovery that the coordinator handles like any dead
// worker.
func (w *worker) saveNodes() {
	if w.shardDir == "" {
		return
	}
	if err := saveNodeSet(w.shardDir, w.nodes); err != nil {
		w.cfg.logf("shard %d: persist node set: %v", w.spec.ID, err)
	}
}

func (w *worker) run() error {
	buf := make([]byte, 64<<10)

	// Phase 1: hello until the merged book arrives. The coordinator
	// replies to each hello, so loss on either leg just retries. The
	// phase deadline covers sibling shards that never start: the book
	// is only sent once every shard has said hello.
	w.cfg.logf("shard %d: hello → %s", w.spec.ID, w.coord)
	gotBook := false
	lastHello := time.Time{}
	phaseDeadline := time.Now().Add(w.cfg.CoordTimeout)
	for !gotBook {
		if time.Now().After(phaseDeadline) {
			return fmt.Errorf("shard %d: no address book from coordinator %s within %v",
				w.spec.ID, w.coord, w.cfg.CoordTimeout)
		}
		if time.Since(lastHello) >= helloRetry {
			w.send(frame{kind: kindHello, shard: w.spec.ID, book: w.localBook()})
			lastHello = time.Now()
		}
		if f, ok := w.read(buf); ok {
			switch f.kind {
			case kindBook:
				if err := w.installBook(f); err != nil {
					return err
				}
				gotBook = true
			case kindStop: // deployment aborted before assembly completed
				w.send(frame{kind: kindBye, shard: w.spec.ID, stats: w.runner.Stats()})
				return nil
			}
		}
	}

	// Phase 2: ready until start. A re-sent book (coordinator missed
	// our ready) is re-acked the same way.
	started := false
	lastReady := time.Time{}
	phaseDeadline = time.Now().Add(w.cfg.CoordTimeout)
	for !started {
		if time.Now().After(phaseDeadline) {
			return fmt.Errorf("shard %d: no start from coordinator %s within %v",
				w.spec.ID, w.coord, w.cfg.CoordTimeout)
		}
		if time.Since(lastReady) >= readyRetry {
			w.send(frame{kind: kindReady, shard: w.spec.ID, epoch: w.epoch})
			lastReady = time.Now()
		}
		if f, ok := w.read(buf); ok {
			switch f.kind {
			case kindStart:
				started = true
			case kindStop: // aborted deployment
				w.send(frame{kind: kindBye, shard: w.spec.ID, stats: w.runner.Stats()})
				return nil
			}
		}
	}
	w.cfg.logf("shard %d: started, %d nodes", w.spec.ID, len(w.spec.Nodes))
	w.runner.Start()

	// Phase 3: serve. Periodic idle reports carry the activity counter
	// and the runner's counters, credit included (the coordinator pongs
	// each one, so frames flow both ways continuously, and a pong with a
	// new wave mark is answered with a report at once); queries are
	// answered with chunked tuple frames; the rebalance frames
	// (book/release/adopt/resume) re-partition the live deployment; stop
	// acknowledges with final stats and tears down. A coordinator silent
	// for the whole timeout is dead: exit rather than run orphaned.
	lastIdle := time.Time{}
	lastCoord := time.Now()
	for {
		if time.Since(lastCoord) > w.cfg.CoordTimeout {
			return fmt.Errorf("shard %d: coordinator %s unreachable for %v",
				w.spec.ID, w.coord, w.cfg.CoordTimeout)
		}
		if time.Since(lastIdle) >= idlePeriod {
			w.sendIdle()
			lastIdle = time.Now()
		}
		f, ok := w.read(buf)
		if !ok {
			continue
		}
		lastCoord = time.Now()
		switch f.kind {
		case kindQuery:
			w.answerQuery(f.req, f.pred)
		case kindPong:
			if f.mark > w.mark {
				w.mark = f.mark
				w.sendIdle()
				lastIdle = time.Now()
			}
		case kindBook:
			// Epoch cutover: install the new view, fence the old one, and
			// acknowledge. A duplicate book for the installed epoch is
			// just re-acked.
			if f.epoch >= w.epoch {
				if err := w.installBook(f); err != nil {
					return err
				}
			}
			w.send(frame{kind: kindReady, shard: w.spec.ID, epoch: w.epoch})
		case kindRelease:
			w.handleRelease(f)
		case kindAdopt:
			if err := w.handleAdopt(f); err != nil {
				return err
			}
		case kindResume:
			// Only resume into the epoch we actually installed; a stale or
			// early resume is dropped and the coordinator retries.
			if f.epoch != w.epoch {
				break
			}
			for id, blob := range w.stash {
				w.cfg.logf("shard %d: importing state for adopted node %s (%d bytes)",
					w.spec.ID, id, len(blob))
				if err := w.runner.ImportNode(id, blob); err != nil {
					return fmt.Errorf("shard %d: import %s: %w", w.spec.ID, id, err)
				}
				delete(w.stash, id)
			}
			// Neighbor-side rederivation: re-send the derivations homed at
			// the moved nodes (hard-state duplicates do not re-trigger
			// strands, so their inbound views only come back via this
			// sweep). Idempotent per resume retry only in tuple-set terms —
			// counts inflate on retries, like any repeated sweep.
			w.runner.RederiveFor(f.nodes)
			w.send(frame{kind: kindResumed, shard: w.spec.ID, epoch: w.epoch})
		case kindRederive:
			// Crash recovery: re-send the derivations homed at the listed
			// nodes. Epoch-fenced (the coordinator issues these
			// after a cutover) and deduplicated by request id — a retry
			// whose ack was lost re-acks without re-inflating counts.
			if f.epoch != w.epoch {
				break
			}
			if !w.rederived[f.req] {
				w.rederived[f.req] = true
				w.runner.RederiveFor(f.nodes)
				// A fleet-wide sweep skips sources that are themselves
				// targets, which silences exactly the co-resident sweeps a
				// crashed shard needs (all its nodes are targets at once).
				// Sweep locally hosted targets one by one so siblings
				// rebuild each other's inbound views.
				local := map[string]bool{}
				for _, id := range w.runner.LocalIDs() {
					local[id] = true
				}
				for _, n := range f.nodes {
					if local[n] {
						w.runner.RederiveFor([]string{n})
					}
				}
			}
			w.send(frame{kind: kindRederived, shard: w.spec.ID, req: f.req})
		case kindStop:
			s := w.runner.Stats()
			w.send(frame{kind: kindBye, shard: w.spec.ID, stats: s})
			w.cfg.logf("shard %d: stopping (sent %d msgs, recv %d msgs, %d retransmitted)",
				w.spec.ID, s.SentMessages, s.RecvMessages, s.Retransmits)
			return nil
		}
	}
}

// installBook installs a membership view: every off-runner entry lands
// in the runner's address book, then the runner switches to the view's
// epoch — data sent from here on carries it, data from other epochs is
// fenced.
func (w *worker) installBook(f frame) error {
	local := map[string]bool{}
	for _, id := range w.runner.LocalIDs() {
		local[id] = true
	}
	for id, addr := range f.book {
		if local[id] {
			continue
		}
		if err := w.runner.SetRemote(id, addr); err != nil {
			return err
		}
	}
	if f.epoch > w.epoch {
		// A new epoch proves the rebalance exchange that filled the
		// request-keyed caches has completed: no retry for an old
		// request can arrive anymore, so drop them.
		w.releaseCache = map[uint64][]byte{}
		w.adoptBuf = map[uint64][][]byte{}
		w.adoptDone = map[uint64]string{}
		w.rederived = map[uint64]bool{}
	}
	w.runner.SetEpoch(f.epoch)
	w.epoch = f.epoch
	return nil
}

// handleRelease exports a migrating node's state, drops the node from
// the runner, and streams the snapshot back in chunks. The export is
// cached by request id (a retry resends the same snapshot even though
// the node is already gone) and by node (a failed rebalance retried
// under a fresh request id still gets the snapshot). A release for a
// node this worker never held is ignored — the coordinator's release
// loop times out and reports it; one bad release must not kill a
// worker hosting other nodes. Releases are epoch-fenced: a delayed
// duplicate from a previous rebalance must not remove a node that has
// since been re-adopted here.
func (w *worker) handleRelease(f frame) {
	if f.epoch != w.epoch {
		return // straggler from another membership view
	}
	blob, ok := w.releaseCache[f.req]
	if !ok {
		// ExportBundle ships the durable snapshot + WAL tail when the
		// node has a store (no full state re-encode on the pause path)
		// and falls back to a bare state export without one; ImportNode
		// on the adopting side accepts either.
		if exported, err := w.runner.ExportBundle(f.node); err == nil {
			if err := w.runner.RemoveNode(f.node); err != nil {
				w.cfg.logf("shard %d: release %s: %v", w.spec.ID, f.node, err)
				return
			}
			blob = exported
			w.lastExport[f.node] = exported
			delete(w.nodes, f.node)
			w.saveNodes()
			w.cfg.logf("shard %d: released node %s (%d bytes of state)", w.spec.ID, f.node, len(blob))
		} else if prev, held := w.lastExport[f.node]; held {
			blob = prev // already released; serve the retained snapshot
		} else {
			w.cfg.logf("shard %d: ignoring release of unknown node %s", w.spec.ID, f.node)
			return
		}
		w.releaseCache[f.req] = blob
	}
	chunks := blobChunks(blob)
	for i, ch := range chunks {
		w.send(frame{kind: kindState, shard: w.spec.ID, req: f.req,
			chunk: i, nchunks: len(chunks), blob: ch})
	}
}

// handleAdopt assembles a chunked adopt transfer; once complete, the
// node is bound to a fresh local socket and its state stashed until the
// resume frame (import waits for the new epoch to be installed
// fleet-wide, so re-advertisements are not fenced). Duplicate chunks
// after completion just re-ack. Adopts are epoch-fenced like releases:
// a delayed duplicate from a previous rebalance must not re-bind a
// node that has since moved elsewhere.
func (w *worker) handleAdopt(f frame) error {
	if f.epoch != w.epoch {
		return nil // straggler from another membership view
	}
	if node, done := w.adoptDone[f.req]; done {
		w.sendAdopted(f.req, node)
		return nil
	}
	chunks := w.adoptBuf[f.req]
	if chunks == nil {
		chunks = make([][]byte, f.nchunks)
		w.adoptBuf[f.req] = chunks
	}
	if f.chunk < len(chunks) && chunks[f.chunk] == nil {
		ch := f.blob
		if ch == nil {
			ch = []byte{}
		}
		chunks[f.chunk] = ch
	}
	for _, ch := range chunks {
		if ch == nil {
			return nil // still assembling
		}
	}
	var blob []byte
	for _, ch := range chunks {
		blob = append(blob, ch...)
	}
	delete(w.adoptBuf, f.req)
	if err := w.runner.AddNode(f.node, ""); err == nil {
		w.stash[f.node] = blob
		// The node is back (or new) here: any snapshot retained from a
		// past release of it is superseded.
		delete(w.lastExport, f.node)
		w.nodes[f.node] = ""
		w.saveNodes()
		w.cfg.logf("shard %d: adopted node %s (%d bytes of state)", w.spec.ID, f.node, len(blob))
	}
	// AddNode error means the node is already hosted (a duplicate adopt
	// completed twice): re-ack with the existing binding either way.
	w.adoptDone[f.req] = f.node
	w.sendAdopted(f.req, f.node)
	return nil
}

func (w *worker) sendAdopted(req uint64, node string) {
	addr := ""
	if a := w.runner.Addr(node); a != nil {
		addr = a.String()
	}
	w.send(frame{kind: kindAdopted, shard: w.spec.ID, req: req, node: node, addr: addr})
}

// blobChunks splits an exported state into control-datagram-sized
// chunks; always at least one (possibly empty) chunk.
func blobChunks(blob []byte) [][]byte {
	var chunks [][]byte
	for len(blob) > tupleChunkSz {
		chunks = append(chunks, blob[:tupleChunkSz])
		blob = blob[tupleChunkSz:]
	}
	return append(chunks, blob)
}

// sendIdle reports the runner's activity counter and its counters,
// credit included, with the newest wave mark this worker has seen.
func (w *worker) sendIdle() {
	w.seq++
	w.send(frame{
		kind:     kindIdle,
		shard:    w.spec.ID,
		epoch:    w.epoch,
		seq:      w.seq,
		mark:     w.mark,
		activity: w.runner.Activity(),
		stats:    w.runner.Stats(),
	})
}

// answerQuery streams a predicate snapshot back in chunks small enough
// for one datagram each. Chunk counts are recomputed per query, so a
// re-sent query (coordinator missed a chunk) re-sends a fresh snapshot.
func (w *worker) answerQuery(req uint64, pred string) {
	tuples := w.runner.TupleValues(pred)
	var chunks [][]val.Tuple
	cur, size := []val.Tuple(nil), 0
	for _, t := range tuples {
		sz := val.EncodedSize(t)
		if len(cur) > 0 && size+sz > tupleChunkSz {
			chunks = append(chunks, cur)
			cur, size = nil, 0
		}
		cur = append(cur, t)
		size += sz
	}
	chunks = append(chunks, cur) // always ≥1 chunk, possibly empty
	for i, ch := range chunks {
		w.send(frame{
			kind: kindTuples, shard: w.spec.ID, req: req,
			chunk: i, nchunks: len(chunks), tuples: ch,
		})
	}
}

// Environment variable names for the re-exec worker entry: a process
// started with these set runs a shard instead of its normal main. Env
// (not flags) keeps worker plumbing out of user-facing flag sets and
// works identically for cmd/ndlog and test binaries.
const (
	EnvManifest = "NDLOG_SHARD_MANIFEST"
	EnvShardID  = "NDLOG_SHARD_ID"
	EnvCoord    = "NDLOG_SHARD_COORD"
	EnvVerbose  = "NDLOG_SHARD_VERBOSE"
)

// WorkerEnv builds the environment entries that turn a re-exec of this
// binary into the given shard's worker process.
func WorkerEnv(manifestPath string, shardID int, coordAddr string) []string {
	return []string{
		EnvManifest + "=" + manifestPath,
		EnvShardID + "=" + strconv.Itoa(shardID),
		EnvCoord + "=" + coordAddr,
	}
}

// MaybeRunWorker checks the process environment for a shard-worker
// assignment; if present it runs the worker to completion and reports
// handled=true (the caller should exit with err's status). Binaries
// that can serve as shard hosts call this first thing in main — and
// test binaries in TestMain — so a coordinator can spawn them.
func MaybeRunWorker() (handled bool, err error) {
	path := os.Getenv(EnvManifest)
	if path == "" {
		return false, nil
	}
	id, err := strconv.Atoi(os.Getenv(EnvShardID))
	if err != nil {
		return true, fmt.Errorf("shard: bad %s: %w", EnvShardID, err)
	}
	m, err := Load(path)
	if err != nil {
		return true, err
	}
	cfg := WorkerConfig{Manifest: m, ShardID: id, Coord: os.Getenv(EnvCoord)}
	if os.Getenv(EnvVerbose) != "" {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "ndnode: "+format+"\n", args...)
		}
	}
	return true, RunWorker(cfg)
}

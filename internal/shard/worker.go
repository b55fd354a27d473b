package shard

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"ndlog/internal/durable"
	"ndlog/internal/netrun"
)

// idlePeriod is the activity report period. Reports are a few dozen
// bytes each, so a short period costs nothing and keeps the
// coordinator's view fresh.
const idlePeriod = 50 * time.Millisecond

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
	// CoordTimeout bounds the dial and coordinator silence: some
	// coordinator frame — the book, the start, and once serving the
	// pong that acks every idle report — must arrive within it, or the
	// worker exits with an error instead of running orphaned forever
	// beside a hung coordinator. A closed connection ends the worker at
	// once. ≤0 means the 60s default.
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

// RunWorker hosts one shard: it binds the shard's node sockets, dials
// the coordinator and joins its handshake (hello → book → ready →
// start), seeds its home facts, reports activity until told to stop,
// and answers gather queries. It blocks until the stop frame arrives
// (or forever in static mode) and returns after a clean teardown; a
// closed coordinator connection returns an error.
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
	dataDir := m.Options.DataDir
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
		warm, err := r.EnableDurability(shardDir, durable.Options{})
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
	conn, err := net.DialTimeout("tcp", cfg.Coord, cfg.CoordTimeout)
	if err != nil {
		return fmt.Errorf("shard: dial coordinator: %w", err)
	}
	w := &worker{
		cfg: cfg, spec: spec, runner: r, ctl: &ctlConn{conn: conn},
		frames:     make(chan frame),
		shardDir:   shardDir,
		nodes:      nodes,
		lastExport: map[string][]byte{},
		stash:      map[string][]byte{},
	}
	go w.read()
	defer func() {
		conn.Close()
		for range w.frames { // until the reader has seen the close
		}
	}()
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
	ctl    *ctlConn
	// frames carries the coordinator's frames from the reader goroutine
	// to run, in stream order; it closes when the connection does.
	frames  chan frame
	readErr error // why frames closed; read after it has

	epoch uint64 // membership epoch of the installed book
	mark  uint64 // newest report-wave mark a pong has carried

	// shardDir is the shard's durable data directory ("" without
	// durability); nodes is the current node → bind-addr set, persisted
	// there as nodes.json on every adopt/release so a respawn rebinds
	// what this shard actually hosts.
	shardDir string
	nodes    map[string]string

	// Rebalance state. lastExport keeps the newest snapshot per released
	// node, serving a re-release of it after a failed rebalance; stash
	// holds adopted state until the resume frame says the new epoch is
	// fully installed fleet-wide.
	lastExport map[string][]byte
	stash      map[string][]byte
}

// read decodes the coordinator's frames and hands them to run until the
// connection closes.
func (w *worker) read() {
	defer close(w.frames)
	r := bufio.NewReader(w.ctl.conn)
	for {
		f, err := readFrame(r)
		if err != nil {
			w.readErr = err
			return
		}
		w.frames <- f
	}
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
	// The handshake: hello, then the merged book (installed and acked
	// with ready), then start. Once started, periodic idle reports carry
	// the activity counter and the runner's counters, credit included
	// (the coordinator pongs each one, and a pong with a new wave mark is
	// answered with a report at once); queries are answered with one
	// tuples frame; the rebalance frames (book/release/adopt/resume)
	// re-partition the live deployment; stop acknowledges with final
	// stats and tears down. A coordinator silent for the whole timeout —
	// before start, one still waiting for a sibling's hello — hangs:
	// exit rather than run orphaned.
	w.cfg.logf("shard %d: hello → %s", w.spec.ID, w.cfg.Coord)
	w.ctl.send(frame{Kind: kindHello, Shard: w.spec.ID, Book: w.localBook()})
	tick := time.NewTicker(idlePeriod)
	defer tick.Stop()
	lastCoord := time.Now()
	started := false
	for {
		var f frame
		select {
		case <-tick.C:
			if time.Since(lastCoord) > w.cfg.CoordTimeout {
				return fmt.Errorf("shard %d: coordinator %s silent for %v",
					w.spec.ID, w.cfg.Coord, w.cfg.CoordTimeout)
			}
			if started {
				w.sendIdle()
			}
			continue
		case got, ok := <-w.frames:
			if !ok {
				return fmt.Errorf("shard %d: coordinator %s closed the connection: %v",
					w.spec.ID, w.cfg.Coord, w.readErr)
			}
			f = got
		}
		lastCoord = time.Now()
		switch f.Kind {
		case kindStart:
			if !started {
				started = true
				w.cfg.logf("shard %d: started, %d nodes", w.spec.ID, len(w.spec.Nodes))
				w.runner.Start()
				w.sendIdle()
			}
		case kindQuery:
			w.ctl.send(frame{Kind: kindTuples, Shard: w.spec.ID, Req: f.Req, Tuples: w.runner.TupleValues(f.Pred)})
		case kindPong:
			if f.Mark > w.mark {
				w.mark = f.Mark
				w.sendIdle()
			}
		case kindBook:
			if err := w.installBook(f); err != nil {
				return err
			}
		case kindRelease:
			w.handleRelease(f)
		case kindAdopt:
			w.handleAdopt(f)
		case kindResume:
			// Only resume into the epoch we actually installed (the
			// coordinator sends resume after every shard acked its book).
			if f.Epoch != w.epoch {
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
			// sweep).
			w.runner.RederiveFor(f.Nodes)
			w.ctl.send(frame{Kind: kindResumed, Shard: w.spec.ID, Epoch: w.epoch})
		case kindRederive:
			// Crash recovery: re-send the derivations homed at the listed
			// nodes. Epoch-fenced: the coordinator issues these after a
			// cutover.
			if f.Epoch != w.epoch {
				break
			}
			w.runner.RederiveFor(f.Nodes)
			// A fleet-wide sweep skips sources that are themselves
			// targets, which silences exactly the co-resident sweeps a
			// crashed shard needs (all its nodes are targets at once).
			// Sweep locally hosted targets one by one so siblings
			// rebuild each other's inbound views.
			local := map[string]bool{}
			for _, id := range w.runner.LocalIDs() {
				local[id] = true
			}
			for _, n := range f.Nodes {
				if local[n] {
					w.runner.RederiveFor([]string{n})
				}
			}
			w.ctl.send(frame{Kind: kindRederived, Shard: w.spec.ID, Req: f.Req})
		case kindStop: // also ends a deployment aborted before it started
			s := w.runner.Stats()
			w.ctl.send(frame{Kind: kindBye, Shard: w.spec.ID, Stats: &s})
			w.cfg.logf("shard %d: stopping (sent %d msgs, recv %d msgs, %d retransmitted)",
				w.spec.ID, s.SentMessages, s.RecvMessages, s.Retransmits)
			return nil
		}
	}
}

// installBook installs a membership view and acknowledges the
// installed epoch with ready. A view older than the installed one is
// only acknowledged: a respawn's cutover book can overtake the book
// that answers its hello. Otherwise every off-runner entry lands in the
// runner's address book, then the runner switches to the view's epoch —
// data sent from here on carries it, data from other epochs is fenced.
func (w *worker) installBook(f frame) error {
	if f.Epoch < w.epoch {
		w.ctl.send(frame{Kind: kindReady, Shard: w.spec.ID, Epoch: w.epoch})
		return nil
	}
	local := map[string]bool{}
	for _, id := range w.runner.LocalIDs() {
		local[id] = true
	}
	for id, addr := range f.Book {
		if local[id] {
			continue
		}
		if err := w.runner.SetRemote(id, addr); err != nil {
			return err
		}
	}
	w.runner.SetEpoch(f.Epoch)
	w.epoch = f.Epoch
	w.ctl.send(frame{Kind: kindReady, Shard: w.spec.ID, Epoch: w.epoch})
	return nil
}

// handleRelease exports a migrating node's state, drops the node from
// the runner, and sends the export back in one state frame. The export
// is also kept by node, so a failed rebalance retried under a fresh
// request still gets the snapshot. A release for a node this worker
// never held is ignored — the coordinator's release times out and
// reports it; one bad release must not kill a worker hosting other
// nodes. Releases are epoch-fenced: one for another membership view
// must not remove a node.
func (w *worker) handleRelease(f frame) {
	if f.Epoch != w.epoch {
		return
	}
	blob, err := w.runner.ExportState(f.Node)
	if err == nil {
		if err := w.runner.RemoveNode(f.Node); err != nil {
			w.cfg.logf("shard %d: release %s: %v", w.spec.ID, f.Node, err)
			return
		}
		w.lastExport[f.Node] = blob
		delete(w.nodes, f.Node)
		w.saveNodes()
		w.cfg.logf("shard %d: released node %s (%d bytes of state)", w.spec.ID, f.Node, len(blob))
	} else if prev, held := w.lastExport[f.Node]; held {
		blob = prev // already released; serve the retained snapshot
	} else {
		w.cfg.logf("shard %d: ignoring release of unknown node %s", w.spec.ID, f.Node)
		return
	}
	w.ctl.send(frame{Kind: kindState, Shard: w.spec.ID, Req: f.Req, Blob: blob})
}

// handleAdopt binds an adopted node to a fresh local socket and stashes
// its state until the resume frame (import waits for the new epoch to
// be installed fleet-wide, so re-advertisements are not fenced). The
// adopted reply carries the node's address, or "" if it could not be
// bound. Adopts are epoch-fenced like releases.
func (w *worker) handleAdopt(f frame) {
	if f.Epoch != w.epoch {
		return
	}
	if err := w.runner.AddNode(f.Node, ""); err == nil {
		w.stash[f.Node] = f.Blob
		// The node is back (or new) here: any snapshot retained from a
		// past release of it is superseded.
		delete(w.lastExport, f.Node)
		w.nodes[f.Node] = ""
		w.saveNodes()
		w.cfg.logf("shard %d: adopted node %s (%d bytes of state)", w.spec.ID, f.Node, len(f.Blob))
	}
	addr := ""
	if a := w.runner.Addr(f.Node); a != nil {
		addr = a.String()
	}
	w.ctl.send(frame{Kind: kindAdopted, Shard: w.spec.ID, Req: f.Req, Node: f.Node, Addr: addr})
}

// sendIdle reports the runner's activity counter and its counters,
// credit included, with the newest wave mark this worker has seen.
func (w *worker) sendIdle() {
	s := w.runner.Stats()
	w.ctl.send(frame{
		Kind:     kindIdle,
		Shard:    w.spec.ID,
		Epoch:    w.epoch,
		Mark:     w.mark,
		Activity: w.runner.Activity(),
		Stats:    &s,
	})
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

// Package simnet is a deterministic discrete-event network simulator.
// It stands in for the paper's 100-machine Emulab deployment: nodes
// exchange messages over point-to-point links with configurable latency
// and loss, message delivery preserves per-link FIFO order (required by
// Theorem 4), and every transmitted byte is accounted so the experiment
// harness can reproduce the paper's bandwidth figures.
//
// Virtual time is in seconds. Handlers run instantaneously in virtual
// time; processing cost is modelled by scheduling delayed sends/timers.
//
// Ownership: Send takes the payload slice and hands it to exactly one
// HandleMessage call — none if the message is lost — and keeps no
// reference afterwards. The sender must not touch it in between. The
// receiving side owns it from delivery on: the engine's Cluster decodes
// it (copy-on-decode, so no tuple aliases it) and then returns it to its
// own free list, where the next send encodes into it. A Handler that
// keeps a payload past HandleMessage therefore keeps it for good. The
// simulator itself is single-threaded: all handlers run on the event
// loop's goroutine, and queued events are held by value, so scheduling
// one allocates nothing.
package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
)

// NodeID names a simulated node.
type NodeID string

// Handler receives messages and timer callbacks for one node.
type Handler interface {
	// HandleMessage is invoked at virtual time now when payload arrives
	// from a neighbor.
	HandleMessage(now float64, from NodeID, payload []byte)
	// HandleTimer is invoked at virtual time now for a timer scheduled
	// with ScheduleTimer.
	HandleTimer(now float64, key string)
}

// HeaderBytes is the fixed per-message overhead added to every payload
// when accounting bandwidth (an IP+UDP-like header).
const HeaderBytes = 28

// ErrNoLink is returned when sending between unconnected nodes.
var ErrNoLink = errors.New("simnet: no link between nodes")

// ErrUnknownNode is returned for operations on unregistered nodes.
var ErrUnknownNode = errors.New("simnet: unknown node")

type link struct {
	latency float64
	loss    float64 // probability a message is dropped
	// jitter adds a uniform [0, jitter) extra delay per message, drawn
	// from the simulator's seeded rng so runs stay reproducible.
	jitter float64
	// down marks a partitioned link: it still exists (HasLink is true,
	// the engine's link-restriction checks still pass) but every message
	// on it is dropped until the partition heals.
	down bool
	// lastArrival enforces FIFO delivery even when extra per-message
	// delays vary: a message never arrives before its predecessor.
	lastArrival float64
}

type eventKind uint8

const (
	evDeliver eventKind = iota
	evTimer
	evFunc
)

// event is one queued delivery, timer or function call. The queue holds
// events by value, so scheduling one allocates nothing.
type event struct {
	time float64
	seq  uint64 // FIFO tie-break for equal times
	kind eventKind

	// deliver: from -> to; timer: to is the node
	from, to NodeID
	payload  []byte

	// timer
	key string

	// func
	fn func(now float64)
}

func (e *event) before(o *event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

// eventQueue is a binary min-heap of events by (time, seq), written out
// by hand because container/heap's any-typed Push and Pop would box
// every event. Its backing array follows what is queued: below a quarter
// full it is halved, and dropped once empty, beyond minQueueCap events.
type eventQueue []event

// minQueueCap is the capacity the queue keeps however few events it
// holds, so a simulation that keeps a handful of events in flight
// reallocates nothing.
const minQueueCap = 64

func (q *eventQueue) push(e event) {
	*q = append(*q, e)
	h := *q
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// pop removes and returns the earliest event; the queue must not be
// empty.
func (q *eventQueue) pop() event {
	h := *q
	e := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // drop the payload and closure references
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	if c := cap(h); c > minQueueCap && n < c/4 {
		if n == 0 {
			h = nil
		} else {
			h = append(make(eventQueue, 0, c/2), h...)
		}
	}
	*q = h
	return e
}

// SendObserver is notified of every message transmission, for bandwidth
// accounting. bytes includes HeaderBytes.
type SendObserver func(now float64, from, to NodeID, bytes int)

// Sim is the simulator. The zero value is not usable; call New.
type Sim struct {
	now      float64
	seq      uint64
	queue    eventQueue
	nodes    map[NodeID]Handler
	links    map[NodeID]map[NodeID]*link
	rng      *rand.Rand
	observer SendObserver

	// Stats.
	messages     int64
	bytes        int64
	dropped      int64
	lastDelivery float64
}

// New creates a simulator with the given seed for loss decisions.
func New(seed int64) *Sim {
	return &Sim{
		nodes: map[NodeID]Handler{},
		links: map[NodeID]map[NodeID]*link{},
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Messages returns the number of delivered messages.
func (s *Sim) Messages() int64 { return s.messages }

// Bytes returns the total bytes transmitted (including headers).
func (s *Sim) Bytes() int64 { return s.bytes }

// Dropped returns the number of lost messages.
func (s *Sim) Dropped() int64 { return s.dropped }

// LastDelivery returns the virtual time of the most recent message
// delivery — the convergence time once the simulation quiesces.
func (s *Sim) LastDelivery() float64 { return s.lastDelivery }

// Observe registers an observer called on every send.
func (s *Sim) Observe(fn SendObserver) { s.observer = fn }

// AddNode registers a node and its handler.
func (s *Sim) AddNode(id NodeID, h Handler) {
	s.nodes[id] = h
	if s.links[id] == nil {
		s.links[id] = map[NodeID]*link{}
	}
}

// Nodes returns all registered node IDs in sorted order.
func (s *Sim) Nodes() []NodeID {
	out := make([]NodeID, 0, len(s.nodes))
	for id := range s.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AddLink creates a bidirectional link with the given one-way latency in
// seconds and loss probability in [0,1).
func (s *Sim) AddLink(a, b NodeID, latency, loss float64) error {
	if _, ok := s.nodes[a]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, a)
	}
	if _, ok := s.nodes[b]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, b)
	}
	s.links[a][b] = &link{latency: latency, loss: loss}
	s.links[b][a] = &link{latency: latency, loss: loss}
	return nil
}

// RemoveLink tears down both directions of a link.
func (s *Sim) RemoveLink(a, b NodeID) {
	delete(s.links[a], b)
	delete(s.links[b], a)
}

// SetLatency updates both directions of an existing link.
func (s *Sim) SetLatency(a, b NodeID, latency float64) error {
	la, ok := s.links[a][b]
	if !ok {
		return fmt.Errorf("%w: %s-%s", ErrNoLink, a, b)
	}
	lb := s.links[b][a]
	la.latency = latency
	lb.latency = latency
	return nil
}

// SetLoss updates the loss probability of both directions of a link.
func (s *Sim) SetLoss(a, b NodeID, loss float64) error {
	la, ok := s.links[a][b]
	if !ok {
		return fmt.Errorf("%w: %s-%s", ErrNoLink, a, b)
	}
	la.loss = loss
	s.links[b][a].loss = loss
	return nil
}

// SetJitter gives both directions of a link a per-message extra delay
// drawn uniformly from [0, jitter). Draws come from the simulator's
// seeded rng, so a fixed seed still yields a fixed schedule; FIFO order
// is preserved by the per-link arrival clamp.
func (s *Sim) SetJitter(a, b NodeID, jitter float64) error {
	la, ok := s.links[a][b]
	if !ok {
		return fmt.Errorf("%w: %s-%s", ErrNoLink, a, b)
	}
	la.jitter = jitter
	s.links[b][a].jitter = jitter
	return nil
}

// EachLink calls fn once per undirected link (a < b). Use it to apply a
// loss or jitter knob network-wide.
func (s *Sim) EachLink(fn func(a, b NodeID)) {
	for _, a := range s.Nodes() {
		for _, b := range s.Neighbors(a) {
			if a < b {
				fn(a, b)
			}
		}
	}
}

// SetDown marks both directions of a link down (true) or up (false).
// A down link drops every message silently — unlike RemoveLink, the
// topology stays intact, so healing is a pure state flip and no
// link-restriction bookkeeping changes.
func (s *Sim) SetDown(a, b NodeID, down bool) error {
	la, ok := s.links[a][b]
	if !ok {
		return fmt.Errorf("%w: %s-%s", ErrNoLink, a, b)
	}
	la.down = down
	s.links[b][a].down = down
	return nil
}

// Partition cuts the network into {members} vs the rest: every link
// with exactly one endpoint in members goes down. Links inside either
// side are untouched, so repeated partitions compose.
func (s *Sim) Partition(members ...NodeID) {
	in := make(map[NodeID]bool, len(members))
	for _, m := range members {
		in[m] = true
	}
	s.EachLink(func(a, b NodeID) {
		if in[a] != in[b] {
			s.SetDown(a, b, true)
		}
	})
}

// Isolate takes every link of id down — the simulator's "node failure".
func (s *Sim) Isolate(id NodeID) {
	for _, n := range s.Neighbors(id) {
		s.SetDown(id, n, true)
	}
}

// Restore brings every link of id back up.
func (s *Sim) Restore(id NodeID) {
	for _, n := range s.Neighbors(id) {
		s.SetDown(id, n, false)
	}
}

// Heal brings every link in the network back up.
func (s *Sim) Heal() {
	s.EachLink(func(a, b NodeID) { s.SetDown(a, b, false) })
}

// Down reports whether the a->b link is currently partitioned.
func (s *Sim) Down(a, b NodeID) bool {
	l, ok := s.links[a][b]
	return ok && l.down
}

// HasLink reports whether a direct link exists.
func (s *Sim) HasLink(a, b NodeID) bool {
	_, ok := s.links[a][b]
	return ok
}

// Neighbors returns the nodes directly linked to id, sorted.
func (s *Sim) Neighbors(id NodeID) []NodeID {
	out := make([]NodeID, 0, len(s.links[id]))
	for n := range s.links[id] {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Send transmits payload from->to along a direct link, with an optional
// extra sender-side delay (e.g. per-tuple processing cost or batching).
// The message arrives after delay + link latency, never earlier than a
// previously sent message on the same directed link (FIFO).
func (s *Sim) Send(from, to NodeID, payload []byte, delay float64) error {
	l, ok := s.links[from][to]
	if !ok {
		return fmt.Errorf("%w: %s->%s", ErrNoLink, from, to)
	}
	size := len(payload) + HeaderBytes
	s.bytes += int64(size)
	if s.observer != nil {
		s.observer(s.now, from, to, size)
	}
	if l.down {
		s.dropped++
		return nil
	}
	if l.loss > 0 && s.rng.Float64() < l.loss {
		s.dropped++
		return nil
	}
	arrive := s.now + delay + l.latency
	if l.jitter > 0 {
		arrive += s.rng.Float64() * l.jitter
	}
	if arrive < l.lastArrival {
		arrive = l.lastArrival
	}
	l.lastArrival = arrive
	s.push(event{time: arrive, kind: evDeliver, from: from, to: to, payload: payload})
	return nil
}

// SendLoopback delivers a payload to the sending node itself after
// delay; used for locally recursive derivations that should consume
// virtual processing time.
func (s *Sim) SendLoopback(node NodeID, payload []byte, delay float64) {
	s.push(event{time: s.now + delay, kind: evDeliver, from: node, to: node, payload: payload})
}

// ScheduleTimer fires Handler.HandleTimer(key) on node after delay.
func (s *Sim) ScheduleTimer(node NodeID, delay float64, key string) {
	s.push(event{time: s.now + delay, kind: evTimer, to: node, key: key})
}

// ScheduleFunc runs fn at now+delay. The harness uses this to inject
// link updates mid-run.
func (s *Sim) ScheduleFunc(delay float64, fn func(now float64)) {
	s.push(event{time: s.now + delay, kind: evFunc, fn: fn})
}

func (s *Sim) push(e event) {
	e.seq = s.seq
	s.seq++
	s.queue.push(e)
}

// Step processes one event. It returns false when the queue is empty.
func (s *Sim) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := s.queue.pop()
	if e.time > s.now {
		s.now = e.time
	}
	switch e.kind {
	case evDeliver:
		h, ok := s.nodes[e.to]
		if !ok {
			return true // node removed mid-flight; drop
		}
		s.messages++
		s.lastDelivery = s.now
		h.HandleMessage(s.now, e.from, e.payload)
	case evTimer:
		if h, ok := s.nodes[e.to]; ok {
			h.HandleTimer(s.now, e.key)
		}
	case evFunc:
		e.fn(s.now)
	}
	return true
}

// Run processes events until the queue is empty or virtual time would
// exceed until (events beyond the horizon stay queued), then advances the
// clock to until, so a loop of Run(Now()+step) calls gets past a quiet
// gap longer than its step. It returns the number of events processed.
func (s *Sim) Run(until float64) int {
	n := 0
	for len(s.queue) > 0 {
		if s.queue[0].time > until {
			break
		}
		s.Step()
		n++
	}
	if s.now < until {
		s.now = until
	}
	return n
}

// RunToQuiescence processes events until none remain or maxEvents is
// reached (a safety valve against non-terminating programs). It reports
// whether the network quiesced.
func (s *Sim) RunToQuiescence(maxEvents int) bool {
	for i := 0; i < maxEvents; i++ {
		if !s.Step() {
			return true
		}
	}
	return len(s.queue) == 0
}

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return len(s.queue) }

package programs

import (
	"fmt"

	"ndlog/internal/val"
)

// ChordConfig sets the soft-state lifetimes (virtual seconds) of the
// Chord program. The defaults assume the harness fires stabilization
// ticks every ~2s and expiry sweeps at least twice per second.
//
// The program splits its predicates into three lifetime classes, and
// the split carries the protocol's correctness (see DESIGN.md §10):
//
//   - Events (lifetime 0): ticks, the stabilization request askSucc,
//     the lookup answer.
//     Fired, processed, gone. Nothing downstream of an event is ever
//     retracted through it, so a later change to the tables an event
//     joined (bestSucc moving to a better successor) cannot cascade a
//     deletion into state derived from past rounds. Without this, the
//     ring oscillates: adopting a better successor would retract the
//     very evidence that justified adopting it.
//
//   - Refreshed soft state (succ, predCand, pred, finger, lookup,
//     lookupRes): re-derived every round by event-triggered rules.
//     A row lives until its deadline — its own TTL, or sooner if the
//     soft rows it was derived from lapse sooner (DESIGN.md "Soft state
//     by deadline") — and a re-derivation with a later deadline extends
//     it in place; a dead peer stops producing refreshes and its rows
//     lapse, each where it is stored, with no retraction sent. The TTL
//     is the failure detector: SuccTTL bounds how long a dead successor
//     haunts the ring views before the next candidate takes over.
//
//   - Aggregate views (bsDist, idmap, pdDist, cand, and bestSucc /
//     pred through them): maintained incrementally from insertions and
//     expiries of the state class, never refreshed themselves.
//     HorizonTTL just keeps them formally soft (the analyzer's
//     lifetime check: state downstream of soft state must be soft) on
//     a horizon far beyond any run.
//
// Because a derived row inherits its support's deadline, a lookup row
// forwarded hop by hop keeps the deadline it was issued with (ReqTTL):
// a lookup circling through stale fingers cannot renew itself. The
// answer is therefore an event (answer, l1) that the requester stores
// as lookupRes for ResTTL from its arrival: a fact about the responder's
// successor, not about the request, so the fingers and successors built
// from it (f2, j2) live FingerTTL and SuccTTL past the answer instead of
// dying with the request.
type ChordConfig struct {
	SuccTTL    float64 // succ/predCand/pred: staleness bound for dead peers
	ReqTTL     float64 // in-flight lookup state (lookup, hopDist)
	ResTTL     float64 // lookupRes rows (stored answers; consumed by j2/f2)
	FingerTTL  float64 // finger rows: staleness bound for dead fingers
	HorizonTTL float64 // aggregate views; maintained by deltas, never refreshed
}

// DefaultChordConfig matches a 2s stabilization period and ~2.5s
// fixFingers period.
func DefaultChordConfig() ChordConfig {
	return ChordConfig{
		SuccTTL:    6,
		ReqTTL:     3,
		ResTTL:     4,
		FingerTTL:  6,
		HorizonTTL: 3600,
	}
}

// Chord returns the Chord DHT in NDlog — the paper's flagship witness
// that a real protocol compresses to a few dozen rules (Section 5,
// P2's 47-rule program). This formulation covers ring join via a
// landmark, periodic successor stabilization with notify (the MIT
// Chord paper's stabilize()/notify() pair), a depth-2 successor list
// for fault tolerance, finger tables built from periodic lookups, and
// greedy lookup routing through the closest preceding candidate.
//
// Identifiers are rule-generated: i1 hashes each node's own address
// onto the 2^32 ring with f_id, and every interval decision runs
// through the wraparound builtins (f_ringdist, f_inrange, f_inrangeoo).
// f_ringdist treats "self" as the farthest successor candidate, so a
// lone landmark is its own successor and answers every lookup without
// bootstrap special cases.
//
// The protocol is tick-driven: the harness injects joinTick / stab /
// fingTick events. Lookup-carrying predicates keep a round number Q so
// a harness can correlate an injected lookup with its answer; the
// stabilization state itself needs no rounds — events make each round
// a one-shot re-derivation that refreshes soft state in place.
func Chord(cfg ChordConfig) string {
	return fmt.Sprintf(`
materialize(node, infinity, infinity, keys(1)).
materialize(landmark, infinity, infinity, keys(1,2)).
materialize(conn, infinity, infinity, keys(1,2)).
materialize(fexp, infinity, infinity, keys(1,2)).
materialize(ident, infinity, infinity, keys(1,2)).
materialize(joinTick, 0, infinity, keys(1,2)).
materialize(stab, 0, infinity, keys(1,2)).
materialize(fingTick, 0, infinity, keys(1,2)).
materialize(askSucc, 0, infinity, keys(1,2,3)).
materialize(succ, %[1]g, infinity, keys(1,2,3)).
materialize(predCand, %[1]g, infinity, keys(1,2,3)).
materialize(pred, %[1]g, infinity, keys(1,2,3)).
materialize(lookup, %[2]g, infinity, keys(1,2,3,4)).
materialize(hopDist, %[2]g, infinity, keys(1,2,3)).
materialize(answer, 0, infinity, keys(1,2,3,4,5)).
materialize(lookupRes, %[3]g, infinity, keys(1,2,3,4,5)).
materialize(finger, %[4]g, infinity, keys(1,2,5)).
materialize(cand, %[5]g, infinity, keys(1,2)).
materialize(bsDist, %[5]g, infinity, keys(1)).
materialize(idmap, %[5]g, infinity, keys(1,2)).
materialize(bestSucc, %[5]g, infinity, keys(1,2,3)).
materialize(pdDist, %[5]g, infinity, keys(1)).

// Every node hashes its own address onto the ring.
i1 ident(@N, I) :- node(@N), I := f_id(N).

// Join: look up our own identifier through the landmark; the answer is
// our live successor.
j1 lookup(@L, K, @N, Q) :- joinTick(@N, Q), landmark(@N, @L), ident(@N, K),
	#conn(@N, @L).
j2 succ(@N, @S, SI) :- lookupRes(@N, K, @S, SI, _Q), ident(@N, K).

// Best successor: the candidate with the smallest clockwise distance.
// f_ringdist(I, I) is the full ring, so a node's own entry never beats
// a real peer — and keeps a lone landmark bootstrapped.
//
// The argmin is recovered through idmap (ring id -> address), itself an
// aggregate, rather than by rejoining succ. That choice is load-bearing:
// a refresh that extends a soft row re-runs normal rule strands, but
// skips aggregate strands — so with b1/m1 as the dampers, per-round
// refresh traffic stops here, and bestSucc re-derives only when the
// minimum actually moves.
b1 bsDist(@N, min<D>) :- succ(@N, @_S, SI), ident(@N, I), D := f_ringdist(I, SI).
m1 idmap(@N, SI, max<S>) :- succ(@N, @S, SI).
b2 bestSucc(@N, @S, SI) :- bsDist(@N, D), ident(@N, I), idmap(@N, SI, @S),
	SI == f_ringadd(I, D).

// Stabilize: each round, ask the current successor. It confirms itself
// (s2: the refresh that keeps live successors alive), hands back its
// predecessor (s3: if someone slid between us, we adopt it via b1 —
// this is also what closes the 2-node ring at the landmark), every node
// that named it as successor (s6: the closest of them to the asker is
// its successor's best candidate, so a node walks back over a crowded
// arc in one round instead of one node per round), and its own
// successor (s4: a depth-2 successor list, the fallback when our
// successor dies). s6 became necessary when the lookup answer turned
// into an event (a1 below) that is no longer retracted with its request:
// without s6, a 30-node ring losing one message in twenty then fails to
// converge within a minute.
//
// askSucc is an event on purpose. If it were stored, a bestSucc
// improvement would retract the ask that discovered it and cascade
// into retracting the discovery itself — restoring the old bestSucc
// and oscillating forever. An ask is an instant: what it derived
// stands until it expires or is refreshed away.
s1 askSucc(@S, @N, Q) :- stab(@N, Q), bestSucc(@N, @S, _SI), #conn(@N, @S).
s2 succ(@N, @S, SI) :- askSucc(@S, @N, _Q), ident(@S, SI), #conn(@S, @N).
s3 succ(@N, @X, XI) :- askSucc(@S, @N, _Q), pred(@S, @X, XI), #conn(@S, @N).
s6 succ(@N, @X, XI) :- askSucc(@S, @N, _Q), predCand(@S, @X, XI), #conn(@S, @N).
s4 succ(@N, @T, TI) :- askSucc(@S, @N, _Q), bestSucc(@S, @T, TI), #conn(@S, @N).

// Notify: tell the successor we exist; it keeps the closest notifier
// as predecessor (p1/p2, an argmin like b1/b2 but keyed on distance
// TO self).
n1 predCand(@S, @N, NI) :- stab(@N, _Q), bestSucc(@N, @S, _SI), ident(@N, NI),
	#conn(@N, @S).
p1 pdDist(@N, min<D>) :- predCand(@N, @_P, PI), ident(@N, I), D := f_ringdist(PI, I).
p2 pred(@N, @P, PI) :- pdDist(@N, D), predCand(@N, @P, PI), ident(@N, I),
	D == f_ringdist(PI, I).

// Candidate view for routing: successors double as fingers (f0, with
// the successor's own identifier standing in for both a target and a
// round tag), and cand aggregates the live finger rows per peer. As an
// aggregate it is stable across refresh rounds — l2/l3 below see a
// candidate appear once and vanish only when its last supporting row
// lapses. Finger rows carry the round of the lookup that built them
// (f2), and each lives FingerTTL past its answer, longer than the
// fixFingers period: the next round's row for the same target appears
// before the last one lapses, so the cand entry — and every lookup
// routed through it — stays put. A lookup re-routed because cand changed
// retracts its old route hop by hop, so a candidate that blinked off
// every round would chase down in-flight lookups, answers included.
f0 finger(@N, SI, @S, SI, SI) :- succ(@N, @S, SI).
c1 cand(@N, @F, max<FI>) :- finger(@N, _T, @F, FI, _Q).

// Lookup routing. A key in (me, bestSucc] resolves to bestSucc: the
// answer event (l1) goes to the requester, which stores it (a1).
// Otherwise forward greedily: among known candidates strictly between
// me and the key, pick the farthest one — Chord's closest-preceding-
// finger rule — via the hopDist max (l2/l3). The forwarded lookup keeps
// its issue deadline; the answer, an event, starts its own lifetime.
l1 answer(@R, K, @S, SI, Q) :- lookup(@N, K, @R, Q), ident(@N, I),
	bestSucc(@N, @S, SI), f_inrange(K, I, SI) == true, #conn(@N, @R).
a1 lookupRes(@R, K, @S, SI, Q) :- answer(@R, K, @S, SI, Q).
l2 hopDist(@N, K, Q, max<D>) :- lookup(@N, K, @_R, Q), cand(@N, @_F, FI),
	ident(@N, I), bestSucc(@N, @_S, SI), f_inrange(K, I, SI) == false,
	f_inrangeoo(FI, I, K) == true, D := f_ringdist(I, FI).
l3 lookup(@F, K, @R, Q) :- hopDist(@N, K, Q, D), lookup(@N, K, @R, Q),
	cand(@N, @F, FI), ident(@N, I), D == f_ringdist(I, FI), #conn(@N, @F).

// Fix fingers: periodically look up I + 2^k for each configured k; the
// answer becomes the finger for that target, stamped with its round.
f1 lookup(@N, T, @N, Q) :- fingTick(@N, Q), fexp(@N, _K, P), ident(@N, I),
	T := f_ringadd(I, P).
f2 finger(@N, T, @S, SI, Q) :- lookupRes(@N, T, @S, SI, Q).

query lookupRes(@R, K, @S, SI, Q).
`, cfg.SuccTTL, cfg.ReqTTL, cfg.ResTTL, cfg.FingerTTL, cfg.HorizonTTL)
}

// ChordNodeFacts builds the per-node base facts for Chord: the node
// row, its landmark, and one fexp row per finger exponent k (holding
// 2^k, precomputed because NDlog has no exponentiation — the identifier
// arithmetic itself stays in rules via f_ringadd).
func ChordNodeFacts(node, landmark string, fingerExps []int) []val.Tuple {
	out := []val.Tuple{
		val.NewTuple("node", val.NewAddr(node)),
		val.NewTuple("landmark", val.NewAddr(node), val.NewAddr(landmark)),
	}
	for _, k := range fingerExps {
		out = append(out, val.NewTuple("fexp",
			val.NewAddr(node), val.NewInt(int64(k)), val.NewInt(int64(1)<<uint(k))))
	}
	return out
}

// ConnFact declares that node may address peer directly (Chord runs on
// a full mesh: any node may acquire any other as successor or finger).
// Include peer == node: rules that answer or stabilize "to self" (the
// lone landmark, a lookup resolving at its requestor) join on the self
// row and the engine short-circuits the delivery locally.
func ConnFact(node, peer string) val.Tuple {
	return val.NewTuple("conn", val.NewAddr(node), val.NewAddr(peer))
}

// ChordSelfSuccFact seeds the landmark's self-successor, the one tuple
// that exists before any protocol round: the lone node is its own
// successor (at full-ring distance, so any real joiner displaces it).
// id must be the node's ring identifier (funcs.RingID of its address).
// Stabilization rounds refresh it in place from then on.
func ChordSelfSuccFact(node string, id int64) val.Tuple {
	return val.NewTuple("succ",
		val.NewAddr(node), val.NewAddr(node), val.NewInt(id))
}

// Tick builders. Ticks are events: the round number is not a key (the
// tuple is never stored) but stamps the lookups a tick spawns, letting
// harnesses correlate answers with the tick or client request that
// caused them.
func StabTick(node string, round int64) val.Tuple {
	return val.NewTuple("stab", val.NewAddr(node), val.NewInt(round))
}

func JoinTick(node string, round int64) val.Tuple {
	return val.NewTuple("joinTick", val.NewAddr(node), val.NewInt(round))
}

func FingTick(node string, round int64) val.Tuple {
	return val.NewTuple("fingTick", val.NewAddr(node), val.NewInt(round))
}

// LookupFact injects a client lookup for key at node; the answer
// returns to node as lookupRes(node, key, succ, succID, round).
func LookupFact(node string, key, round int64) val.Tuple {
	return val.NewTuple("lookup",
		val.NewAddr(node), val.NewInt(key), val.NewAddr(node), val.NewInt(round))
}

package programs

import (
	"fmt"

	"ndlog/internal/val"
)

// GossipConfig sets the soft-state lifetimes (virtual seconds) of the
// epidemic failure detector. RumorTTL should cover a few gossip rounds
// (late rumors still count as evidence of life); KnowTTL garbage-
// collects view entries whose counters have stopped rising. Neither TTL
// is the detection timeout: detection reads the counters (see Gossip).
type GossipConfig struct {
	RumorTTL float64 // received heartbeat copies
	KnowTTL  float64 // the liveness view; the detection timeout
}

// DefaultGossipConfig matches a 1s gossip round.
func DefaultGossipConfig() GossipConfig {
	return GossipConfig{RumorTTL: 5, KnowTTL: 9}
}

// Gossip returns an epidemic (anti-entropy push) failure detector in
// three rules. Every node heartbeats a rising counter (hb, injected by
// the harness); rumors carry heartbeat observations between nodes; the
// know view keeps, per observed node, the freshest counter heard (g2's
// max). Each round the harness picks one random partner per node (peer
// facts) and g3 pushes the full liveness view to it.
//
// The monotone counter + max aggregate is what tames the epidemic:
// re-hearing an already-known counter leaves the max unchanged and
// triggers nothing downstream, so per round each node forwards each
// entry at most once — infection spreads in O(log n) rounds without
// refresh storms.
//
// Failure detection is heartbeat staleness: a dead node's counter stops
// rising, so its know entries freeze while every live counter keeps
// climbing, and a reader declares any entry lagging past its threshold
// failed — there is no explicit failure message anywhere in the
// program. The TTLs only bound state. A forwarded entry (g3) carries
// the remaining lifetime of the sender's know row, which was set when
// the sender's maximum last changed, so a dead node's rows lapse about
// KnowTTL after the last survivor learned its final counter: bounded,
// but far later than staleness fires, and only reclaiming the memory
// after detection has long since happened.
//
// hb and peer are events (lifetime 0): each injected heartbeat or
// partner choice triggers its rule once against stored state and is
// never stored itself. Storing them would make every expiry re-derive
// a deletion cascade through g1/g3 that chases down rumor rows the
// receiver still needs — the protocol's only deletions are TTL decay.
func Gossip(cfg GossipConfig) string {
	return fmt.Sprintf(`
materialize(conn, infinity, infinity, keys(1,2)).
materialize(peer, 0, infinity, keys(1,2,3)).
materialize(hb, 0, infinity, keys(1,2)).
materialize(rumor, %[1]g, infinity, keys(1,2,3)).
materialize(know, %[2]g, infinity, keys(1,2)).

// Our own heartbeat is a rumor about ourselves.
g1 rumor(@N, @N, C) :- hb(@N, C).

// Liveness view: freshest counter heard per node.
g2 know(@N, @X, max<C>) :- rumor(@N, @X, C).

// Push the view to this round's partner.
g3 rumor(@P, @X, C) :- peer(@N, @P, _Q), know(@N, @X, C), #conn(@N, @P).

query know(@N, @X, C).
`, cfg.RumorTTL, cfg.KnowTTL)
}

// HeartbeatFact injects one heartbeat for node with the given (rising)
// counter.
func HeartbeatFact(node string, counter int64) val.Tuple {
	return val.NewTuple("hb", val.NewAddr(node), val.NewInt(counter))
}

// PeerFact names node's gossip partner for one round.
func PeerFact(node, partner string, round int64) val.Tuple {
	return val.NewTuple("peer",
		val.NewAddr(node), val.NewAddr(partner), val.NewInt(round))
}

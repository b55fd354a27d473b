//go:build !linux || 386

package netrun

import "net"

// canProbe reports whether probe.pending can ever see a queued datagram.
const canProbe = false

// probe is the receive loop's "is another datagram queued?" check. Off
// Linux, and on linux/386, it reports nothing pending, so every batch
// holds one datagram: the same loop, draining once per frame.
type probe struct{}

func newProbe(*net.UDPConn) *probe { return &probe{} }

func (*probe) pending() bool { return false }

// linux/386 reaches recvfrom only through socketcall, so it takes the
// portable probe.

//go:build !386

package netrun

import (
	"net"
	"syscall"
)

// canProbe reports whether probe.pending can ever see a queued datagram.
const canProbe = true

// probe reports whether another datagram is already queued on a node's
// socket, so a receive loop can read it into the batch it is building
// instead of draining first. It costs one non-blocking zero-length
// recvfrom with MSG_PEEK, which leaves the datagram where it is, and it
// allocates nothing: the raw-conn callback is bound once, and the raw
// syscall skips syscall.Recvfrom's per-call Sockaddr.
type probe struct {
	rc    syscall.RawConn
	fn    func(fd uintptr) bool
	ready bool
}

func newProbe(c *net.UDPConn) *probe {
	p := &probe{}
	rc, err := c.SyscallConn()
	if err != nil {
		return p
	}
	p.rc = rc
	p.fn = func(fd uintptr) bool {
		_, _, errno := syscall.Syscall6(syscall.SYS_RECVFROM, fd, 0, 0,
			syscall.MSG_PEEK|syscall.MSG_DONTWAIT, 0, 0)
		p.ready = errno == 0
		return true // never park: an empty socket answers "nothing pending"
	}
	return p
}

// pending reports whether a datagram is queued. A socket error (a closed
// socket, or a pending ICMP error the probe consumes) reads as nothing
// pending, and the loop's next blocking read sees the socket as it is.
func (p *probe) pending() bool {
	if p.rc == nil {
		return false
	}
	p.ready = false
	if p.rc.Read(p.fn) != nil {
		return false
	}
	return p.ready
}

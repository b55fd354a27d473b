//go:build unix

package shard

import "syscall"

// freeze stops process pid (SIGSTOP): it can neither answer nor exit.
func freeze(pid int) error { return syscall.Kill(pid, syscall.SIGSTOP) }

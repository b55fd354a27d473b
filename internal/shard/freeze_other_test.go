//go:build !unix

package shard

import "errors"

// freeze has no SIGSTOP to send here.
func freeze(int) error { return errors.ErrUnsupported }

//go:build !unix

package mem

import "errors"

// Without mmap, node memory is Go heap (New's fallback).
func mapAnon(uint64) ([]byte, error) { return nil, errors.ErrUnsupported }

func unmapAnon([]byte) {}

//go:build !linux

package kvserve

import "os"

func preallocate(*os.File, int64) error { return nil }

func storeByLine([]byte) {}

func (*pmemFile) release(int, int) bool { return false }

//go:build amd64

package lib

// ArchHook is the amd64 twin.
func ArchHook() int { return 0 }

//go:build !amd64

package lib

// ArchHook is the portable twin.
func ArchHook() int { return archShared() }

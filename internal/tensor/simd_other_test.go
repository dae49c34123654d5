//go:build !amd64

package tensor

// archRungs: off amd64 every class has one body, its pure-Go twin.
func archRungs() []rung { return nil }

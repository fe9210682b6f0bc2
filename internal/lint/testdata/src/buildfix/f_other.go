//go:build !linux

package buildfix

// F names the platforms this file builds for.
func F() string { return "every GOOS but linux" }

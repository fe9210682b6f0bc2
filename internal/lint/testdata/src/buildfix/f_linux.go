// Package buildfix pins that the loader honours build constraints: this
// file and f_other.go both declare F, and every build context selects
// exactly one of them.
package buildfix

// F names the platforms this file builds for.
func F() string { return "linux" }

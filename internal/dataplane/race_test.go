//go:build race

package dataplane

// raceBuild reports whether the tests run under the race detector, which
// instruments Go code but not assembly: timing comparisons between a Go
// path and an assembly path are meaningless there.
const raceBuild = true

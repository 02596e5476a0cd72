//go:build !race

package dataplane

// raceBuild reports whether the tests run under the race detector (see
// race_test.go).
const raceBuild = false

// Package exporttest is a loader fixture: its export_test.go file hands
// an unexported helper to the external x_test package, as go test allows.
package exporttest

// Cell is the type the external test meets both directly and through
// package user.
type Cell struct{ v int }

func double(c Cell) Cell { return Cell{2 * c.v} }

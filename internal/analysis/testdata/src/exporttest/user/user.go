// Package user imports exporttest, so an external test of exporttest
// must see user built against the test-augmented exporttest.
package user

import "tmisa/internal/analysis/testdata/src/exporttest"

// One returns a Cell of package exporttest.
func One() exporttest.Cell { return exporttest.Cell{} }

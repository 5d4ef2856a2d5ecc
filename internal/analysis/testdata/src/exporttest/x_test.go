package exporttest_test

import (
	"testing"

	"tmisa/internal/analysis/testdata/src/exporttest"
	"tmisa/internal/analysis/testdata/src/exporttest/user"
)

func TestDouble(t *testing.T) {
	var c exporttest.Cell = exporttest.Double(user.One())
	_ = c
}

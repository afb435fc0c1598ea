package core

import (
	"testing"

	"github.com/afrinet/observatory/internal/metrics"
)

func TestMean(t *testing.T) {
	if metrics.Mean([]float64{1, 3}) != 2 {
		t.Fatal("mean of 1 and 3 is 2")
	}
}

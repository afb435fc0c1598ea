package experiments

import "github.com/afrinet/observatory/internal/metrics"

// Average is the experiments' own.
func Average(xs []float64) float64 { return metrics.Mean(xs) }

package core

import stats "github.com/afrinet/observatory/internal/metrics"

// Average reaches into the experiments' toolkit.
func Average(xs []float64) float64 { return stats.Mean(xs) } // trip: internal/metrics.Mean

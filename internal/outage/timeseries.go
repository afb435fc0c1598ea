package outage

import (
	"math"
	"sort"

	"github.com/afrinet/observatory/internal/geo"
	"github.com/afrinet/observatory/internal/splitmix"
)

// Radar-style detection from traffic signals. Cloudflare Radar does not
// see events; it sees per-country traffic volume and flags sustained
// drops. This file generates the hourly traffic series a Radar-like
// vantage would observe for each country — diurnal cycle, weekly
// modulation, noise, and the generated outage events applied at their
// true severities — and then detects outages from the series alone.
// Comparing detected windows against ground-truth events measures the
// detector itself (missed short events, merged overlapping ones), which
// is how a real observatory must be validated.

// TrafficPoint is one hour of a country's observed traffic volume,
// normalized so the long-run average sits near 1.0.
type TrafficPoint struct {
	Hour   int
	Volume float64
}

// SeriesParams shape the synthetic signal.
type SeriesParams struct {
	// DiurnalAmp is the day/night swing (0..1).
	DiurnalAmp float64
	// WeekendDip is the weekend traffic reduction (0..1).
	WeekendDip float64
	// NoiseAmp is the per-hour multiplicative noise amplitude.
	NoiseAmp float64
}

// DefaultSeriesParams mirror eyeball-network traffic.
func DefaultSeriesParams() SeriesParams {
	return SeriesParams{DiurnalAmp: 0.45, WeekendDip: 0.12, NoiseAmp: 0.06}
}

// TrafficSeries renders a country's hourly series over the horizon with
// the events' impacts applied. Impact evaluation is pluggable so callers
// can reuse already-evaluated events ((country, drop) pairs).
func TrafficSeries(country string, days int, impacts []CountryImpact, p SeriesParams, seed uint64) []TrafficPoint {
	h := splitmix.String(seed, country)
	out := make([]TrafficPoint, days*24)
	for hour := 0; hour < len(out); hour++ {
		tod := float64(hour % 24)
		day := hour / 24
		// Diurnal: low ~04:00, high ~20:00.
		diurnal := 1 + p.DiurnalAmp*math.Sin((tod-10)/24*2*math.Pi)
		weekend := 1.0
		if day%7 >= 5 {
			weekend = 1 - p.WeekendDip
		}
		noise := 1 + p.NoiseAmp*(splitmix.Unit(splitmix.Mix(h^uint64(hour)))*2-1)
		v := diurnal * weekend * noise
		for _, imp := range impacts {
			if imp.Country != country {
				continue
			}
			start := int(imp.StartDay * 24)
			end := int((imp.StartDay + imp.Duration) * 24)
			if hour >= start && hour < end {
				v *= 1 - imp.Drop
			}
		}
		out[hour] = TrafficPoint{Hour: hour, Volume: v}
	}
	return out
}

// CountryImpact is one event's effect on one country, on the timeline.
type CountryImpact struct {
	Country  string
	StartDay float64
	Duration float64
	Drop     float64
	Cause    Cause
}

// DetectedWindow is one outage the series detector flags.
type DetectedWindow struct {
	Country   string
	StartHour int
	EndHour   int
	// Depth is the mean drop versus the expected baseline during the
	// window.
	Depth float64
}

// DurationDays converts the window length.
func (w DetectedWindow) DurationDays() float64 { return float64(w.EndHour-w.StartHour) / 24 }

// SeriesDetector flags sustained drops below a share of the expected
// baseline, Radar-style: compare each hour to the same hour-of-week
// baseline, require minHours consecutive hours under threshold.
type SeriesDetector struct {
	// DropThreshold is the fractional drop that counts (e.g. 0.25).
	DropThreshold float64
	// MinHours is the minimum consecutive duration.
	MinHours int
}

// NewSeriesDetector uses Radar-like defaults.
func NewSeriesDetector() SeriesDetector {
	return SeriesDetector{DropThreshold: 0.25, MinHours: 2}
}

// Detect scans a series. The baseline for each hour-of-week slot is the
// median of that slot across the horizon, which tolerates the outage
// windows themselves as long as they are a minority of samples.
func (d SeriesDetector) Detect(country string, series []TrafficPoint) []DetectedWindow {
	if len(series) == 0 {
		return nil
	}
	// Hour-of-week baselines.
	slots := make([][]float64, 24*7)
	for _, pt := range series {
		s := pt.Hour % (24 * 7)
		slots[s] = append(slots[s], pt.Volume)
	}
	base := make([]float64, 24*7)
	for s, vs := range slots {
		if len(vs) == 0 {
			base[s] = 1
			continue
		}
		sorted := append([]float64(nil), vs...)
		sort.Float64s(sorted)
		base[s] = sorted[len(sorted)/2]
	}

	var out []DetectedWindow
	runStart := -1
	var depthSum float64
	flush := func(endHour int) {
		if runStart < 0 {
			return
		}
		length := endHour - runStart
		if length >= d.MinHours {
			out = append(out, DetectedWindow{
				Country:   country,
				StartHour: runStart,
				EndHour:   endHour,
				Depth:     depthSum / float64(length),
			})
		}
		runStart = -1
		depthSum = 0
	}
	for _, pt := range series {
		b := base[pt.Hour%(24*7)]
		drop := 0.0
		if b > 0 {
			drop = 1 - pt.Volume/b
		}
		if drop >= d.DropThreshold {
			if runStart < 0 {
				runStart = pt.Hour
			}
			depthSum += drop
		} else {
			flush(pt.Hour)
		}
	}
	flush(series[len(series)-1].Hour + 1)
	return out
}

// RadarReport is the observatory's outage-center view over a horizon:
// ground-truth impacts, the series each country exhibits, and what the
// detector recovered.
type RadarReport struct {
	Days     int
	Impacts  []CountryImpact
	Detected map[string][]DetectedWindow
	// Recall is the share of ground-truth impact windows (above the
	// detector threshold) that overlap a detected window.
	Recall float64
	// MeanDurationError is the mean |detected - true| duration in days
	// over matched windows.
	MeanDurationError float64
}

// RunRadar generates events, evaluates their impacts, renders every
// African country's traffic series, and runs detection.
func (m *Model) RunRadar(days int, seed uint64) RadarReport {
	years := float64(days) / 365
	events := m.GenerateEvents(years)

	var impacts []CountryImpact
	for _, ev := range events {
		imp := m.Evaluate(ev)
		for ctry, drop := range imp.Drop {
			impacts = append(impacts, CountryImpact{
				Country: ctry, StartDay: ev.StartDay, Duration: ev.Duration,
				Drop: drop, Cause: ev.Cause,
			})
		}
	}

	rep := RadarReport{Days: days, Impacts: impacts, Detected: map[string][]DetectedWindow{}}
	det := NewSeriesDetector()
	params := DefaultSeriesParams()
	for _, c := range geo.AfricanCountries() {
		series := TrafficSeries(c.ISO2, days, impacts, params, seed)
		if ws := det.Detect(c.ISO2, series); len(ws) > 0 {
			rep.Detected[c.ISO2] = ws
		}
	}

	// Score the detector against the ground truth it could plausibly
	// see: drops comfortably above threshold, lasting at least the
	// detector's minimum window, fully inside the horizon. (Radar-style
	// detection inherently misses brief blips; that miss rate is a
	// finding, not a bug, and the brief events stay out of the recall
	// denominator.)
	matched, eligible := 0, 0
	var durErr float64
	for _, imp := range impacts {
		if c, ok := geo.Lookup(imp.Country); !ok || !c.Region.IsAfrica() {
			continue // series are rendered for the observatory's scope
		}
		if imp.Drop < det.DropThreshold+0.10 ||
			imp.Duration*24 < float64(det.MinHours+2) ||
			imp.StartDay+imp.Duration > float64(days) {
			continue
		}
		eligible++
		start := int(imp.StartDay * 24)
		end := int((imp.StartDay + imp.Duration) * 24)
		for _, w := range rep.Detected[imp.Country] {
			if w.StartHour < end && w.EndHour > start {
				matched++
				durErr += math.Abs(w.DurationDays() - imp.Duration)
				break
			}
		}
	}
	if eligible > 0 {
		rep.Recall = float64(matched) / float64(eligible)
	}
	if matched > 0 {
		rep.MeanDurationError = durErr / float64(matched)
	}
	return rep
}

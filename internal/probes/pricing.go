// Package probes implements the observatory's measurement agents: the
// Raspberry-Pi-class devices with cellular and wired uplinks that
// Section 7 describes, including the constraints that distinguish them
// from RIPE Atlas probes — metered mobile data under country-specific
// pricing models, prepaid bundles, and intermittent grid power.
package probes

import (
	"fmt"
	"sync"
)

// PricingModel prices cellular data the way a local operator does.
// Different countries use different models (Section 7.1), so the model
// is an interface.
type PricingModel interface {
	// Name identifies the model for reports.
	Name() string
	// Cost returns the price of sending/receiving extra bytes, assuming
	// alreadyUsed bytes were consumed in the billing period.
	Cost(alreadyUsed, extra int64) float64
}

// PerMB is simple metered pricing.
type PerMB struct {
	// RatePerMB is the price of one megabyte.
	RatePerMB float64
}

// Name implements PricingModel.
func (p PerMB) Name() string { return fmt.Sprintf("per-mb(%.3f)", p.RatePerMB) }

// Cost implements PricingModel.
func (p PerMB) Cost(_, extra int64) float64 {
	return float64(extra) / (1 << 20) * p.RatePerMB
}

// PrepaidBundle prices data in fixed bundles: usage crossing a bundle
// boundary buys the next whole bundle — the dominant model in African
// mobile markets.
type PrepaidBundle struct {
	BundleMB    int64
	BundlePrice float64
}

// Name implements PricingModel.
func (p PrepaidBundle) Name() string {
	return fmt.Sprintf("prepaid(%dMB@%.2f)", p.BundleMB, p.BundlePrice)
}

// Cost implements PricingModel.
func (p PrepaidBundle) Cost(alreadyUsed, extra int64) float64 {
	if p.BundleMB <= 0 {
		return 0
	}
	bundleBytes := p.BundleMB << 20
	before := (alreadyUsed + bundleBytes - 1) / bundleBytes
	after := (alreadyUsed + extra + bundleBytes - 1) / bundleBytes
	if after < before {
		after = before
	}
	return float64(after-before) * p.BundlePrice
}

// Budget tracks metered spending against a money cap.
type Budget struct {
	mu        sync.Mutex
	model     PricingModel
	capMoney  float64
	spent     float64
	usedBytes int64
}

// NewBudget creates a budget with the given money cap.
func NewBudget(model PricingModel, capMoney float64) *Budget {
	return &Budget{model: model, capMoney: capMoney}
}

// ErrBudgetExhausted is returned when a charge would exceed the cap.
var ErrBudgetExhausted = fmt.Errorf("probes: data budget exhausted")

// CostOf prices a prospective transfer without charging.
func (b *Budget) CostOf(bytes int64) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.model.Cost(b.usedBytes, bytes)
}

// Charge books a transfer, failing without side effects if it would
// exceed the cap.
func (b *Budget) Charge(bytes int64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.model.Cost(b.usedBytes, bytes)
	if b.spent+c > b.capMoney+1e-9 {
		return ErrBudgetExhausted
	}
	b.spent += c
	b.usedBytes += bytes
	return nil
}

// UsedBytes returns bytes consumed so far.
func (b *Budget) UsedBytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.usedBytes
}

// Remaining returns money left under the cap.
func (b *Budget) Remaining() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.capMoney - b.spent
}

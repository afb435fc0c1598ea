package splitmix

import (
	"math"
	"testing"
)

// TestMixMatchesSplitMix64 pins Mix to the published SplitMix64 outputs
// and the helpers to their definitions over it.
func TestMixMatchesSplitMix64(t *testing.T) {
	const seed, gamma = 1234567, 0x9e3779b97f4a7c15
	for k, want := range []uint64{6457827717110365317, 3203168211198807973, 9817491932198370423, 4593380528125082431, 16408922859458223821} {
		if got := Mix(seed + uint64(k)*gamma); got != want {
			t.Errorf("output %d of seed %d: Mix = %d, want %d", k, seed, got, want)
		}
	}
	if got := Mix(0); got != 0xe220a8397b1dcdaf {
		t.Errorf("Mix(0) = %#x, want 0xe220a8397b1dcdaf", got)
	}
	for _, s := range []string{"", "site0.KE", "kgl-01\x00t-1", "Côte d'Ivoire"} {
		var runes []uint64
		for _, r := range s {
			runes = append(runes, uint64(r))
		}
		if got, want := String(0x6b, s), Fold(0x6b, runes...); got != want {
			t.Errorf("String(0x6b, %q) = %#x, want Fold over its runes %#x", s, got, want)
		}
	}
	if u := Unit(math.MaxUint64); u >= 1 || Unit(0) != 0 {
		t.Errorf("Unit(MaxUint64) = %v, Unit(0) = %v: want [0, 1)", u, Unit(0))
	}
	for _, n := range []int{1, 3, 254} {
		for k := range uint64(64) {
			if p := Pick(Mix(k), n); p < 0 || p >= n {
				t.Fatalf("Pick(Mix(%d), %d) = %d, outside [0, %d)", k, n, p, n)
			}
		}
	}
	if p := Pick(math.MaxUint64, 7); p < 0 || p >= 7 {
		t.Errorf("Pick(MaxUint64, 7) = %d, outside [0, 7)", p)
	}
}

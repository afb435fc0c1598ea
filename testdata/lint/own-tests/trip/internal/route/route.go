package route

// Live is used by a command.
func Live() int { return OnlyTested() - 1 + Helper() }

// OnlyTested is used by Live and by its tests.
func OnlyTested() int { return 1 }

// Helper is used by Live.
func Helper() int { return 0 }

// Reachable is used only by its own package's test.
func Reachable() bool { return true } // trip: internal/route.Reachable

// Decode is used only by its own package's external test.
func Decode(b []byte) string { return string(b) } // trip: internal/route.Decode

// Tariff is built only by its own package's test: its method names it as
// a receiver, which does not use it.
type Tariff struct{ Rate int } // trip: internal/route.Tariff

func (p Tariff) String() string { return "tariff" }

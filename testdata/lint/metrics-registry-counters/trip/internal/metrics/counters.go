package metrics

// CounterSet is the second counter system.
type CounterSet map[string]int

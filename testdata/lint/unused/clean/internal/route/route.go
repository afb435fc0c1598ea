package route

import "fmt"

// Walker is implemented by Table: its methods are live while Walker is.
type Walker interface{ Walk(func(string)) }

// Table is a routing table.
type Table struct{ prefixes []string }

// Walk satisfies Walker.
func (t *Table) Walk(fn func(string)) {
	for _, p := range t.prefixes {
		fn(p)
	}
}

// String is called by fmt.
func (t *Table) String() string { return fmt.Sprint(len(t.prefixes)) }

// Tested is used by another package's test.
func Tested() int { return 1 }

// OwnTested is used by its own package's test.
func OwnTested() int { return 2 }

func helper() {}

func init() { helper() }

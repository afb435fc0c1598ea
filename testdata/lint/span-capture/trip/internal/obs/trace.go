package obs

// Span is one timed phase, written by one goroutine.
type Span struct{ children []*Span }

// Child starts a nested span.
func (s *Span) Child(name string) *Span {
	c := &Span{}
	s.children = append(s.children, c)
	return c
}

// End closes the span.
func (s *Span) End() {}

package route_test

import (
	"testing"

	"github.com/afrinet/observatory/internal/route"
)

func TestDecode(t *testing.T) {
	if route.Decode([]byte("a")) != "a" {
		t.Fatal("decode")
	}
}

package chaos

import (
	"testing"

	"github.com/afrinet/observatory/internal/route"
)

func TestGenerate(t *testing.T) {
	if route.Generate() != 2 {
		t.Fatal("generate")
	}
}

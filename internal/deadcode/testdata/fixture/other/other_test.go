package other

import (
	"testing"

	"fixture/lib"
)

func TestOther(t *testing.T) {
	if lib.OtherTestOnly() != 4 {
		t.Fatal("OtherTestOnly")
	}
}

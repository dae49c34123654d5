package other

import (
	"testing"

	"fixture/lib"
	"fixture/libtest"
)

func TestOther(t *testing.T) {
	if lib.OtherTestOnly() != 4 || libtest.Square().Area() != 9 {
		t.Fatal("OtherTestOnly")
	}
}

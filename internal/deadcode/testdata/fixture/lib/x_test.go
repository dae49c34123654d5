package lib_test

import (
	"testing"

	"fixture/lib"
)

func TestOwnExternal(t *testing.T) {
	if lib.OwnTestOnly() != 3 {
		t.Fatal("OwnTestOnly")
	}
}

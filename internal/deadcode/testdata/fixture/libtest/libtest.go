// Package libtest is test support that other packages' tests share.
package libtest

import "fixture/lib"

// Square is the shape the tests measure.
func Square() lib.Square { return lib.Square{Side: 3} }

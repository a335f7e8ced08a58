// A test file may import a test-support package.
package main

import "rxview/internal/testkit"

var _ = testkit.Must(0, nil)

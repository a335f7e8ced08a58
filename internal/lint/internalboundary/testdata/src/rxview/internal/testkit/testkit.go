// Stub test-support package for internalboundary fixtures.
package testkit

func Must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

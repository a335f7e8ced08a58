// Package kit stands for a test-support package: exempt, so its unreached
// Helper is not reported.
package kit

// Helper is called by no one.
func Helper() {}

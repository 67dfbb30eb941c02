package telemetry

// GoldenRegistry is goldenRegistry for the server tests, which live in
// package telemetry_test because httpserver imports this package.
var GoldenRegistry = goldenRegistry

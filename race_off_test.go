//go:build !race

package autoncs

const RaceEnabled = false

//go:build !race

package dcasim

const raceEnabled = false

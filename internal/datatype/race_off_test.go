//go:build !race

package datatype

const raceEnabled = false

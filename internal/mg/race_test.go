//go:build race

package mg

func init() { raceBuild = true }

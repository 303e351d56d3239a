package lib

// Config holds one option per case of the field pass; reach_test.go states
// each one's expected outcome.
type Config struct {
	// TestOnly is set by lib_test.go alone.
	TestOnly int
	// Flagged is bound to a command-line flag by the program.
	Flagged int
	// Defaulted is set only by withDefaults.
	Defaulted int
	// Inner is turned by the program's write to Inner.X.
	Inner InnerConfig
	// FromCold and FromHot are copied from SourceConfig's options.
	FromCold, FromHot int
}

// InnerConfig is written through a nested path.
type InnerConfig struct{ X int }

// SourceConfig feeds Derive's copies: the program sets Hot, nobody Cold.
type SourceConfig struct{ Hot, Cold int }

func (c Config) withDefaults() Config {
	if c.Defaulted == 0 {
		c.Defaulted = 3
	}
	return c
}

// Size reads every option.
func Size(c Config) int {
	c = c.withDefaults()
	return c.TestOnly + c.Flagged + c.Defaulted + c.Inner.X + c.FromCold + c.FromHot
}

// Derive copies options: FromCold is turned only if Cold is, FromHot only
// if Hot is.
func Derive(s SourceConfig) Config { return Config{FromCold: s.Cold, FromHot: s.Hot} }

// AliasedConfig is named by the API package's alias; nobody sets Knob.
type AliasedConfig struct{ Knob int }

package interleave

// Exported facade for cmd/sprwl-model: one type-checked module load,
// reused across every config build.

// Extractor wraps the loaded, type-checked module.
type Extractor struct{ ex *extractor }

// NewExtractor loads the module containing dir for extraction.
func NewExtractor(dir string) (*Extractor, error) {
	ex, err := newExtractor(dir)
	if err != nil {
		return nil, err
	}
	return &Extractor{ex: ex}, nil
}

// Build extracts and assembles the named shipped configuration.
func (e *Extractor) Build(name string) (*Model, error) {
	return BuildConfig(e.ex, name)
}

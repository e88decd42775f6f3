package store

// Path returns the directory the backend is bound to.
func (d *Dir) Path() string { return d.path }

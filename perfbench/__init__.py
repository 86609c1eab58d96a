"""Benchmark of cyclerec's continual run, end to end and by module. See README.md."""

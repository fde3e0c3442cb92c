"""End-to-end benchmark of simulate -> fit -> predict (see README.md)."""

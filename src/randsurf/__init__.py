"""Random gluings of ideal triangles and the bottom of their cycle spectrum."""

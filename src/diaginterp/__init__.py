"""diaginterp: information-theoretic interpretability of one classifier by
another over binary-image spaces.

A known, editable model queries the images where it disagrees with a black
box, updates itself toward the black box's answers, and the library tracks
how much of the initial disagreement entropy those queries remove -- together
with how representative the queried space was of all possible inputs. A
brute-force oracle validates every count and entropy on small spaces.

Import each name from the module that defines it: ``imagespace``, ``models``,
``metrics``, ``engine``, ``oracle``, ``fixtures``, ``errors`` or ``cli``.
"""

"""The big-integer backend digitpow runs on.

Every exact route uses Python ints and numpy; gmpy2 is not used.  The
flag stays so that timing records can name the backend they ran on.
"""

USING_GMPY2 = False

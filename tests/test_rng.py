"""Golden values of the random streams: the stream key, the face coins and the normals.

The replication tables and the constants are byte-identical across refactors
only while these streams are; any change to their cost must keep these bytes.
"""

import numpy as np

from softplex.rng import FACE_COIN_STREAM, derive_seed, generator, standard_normals, uniform_coins

TABLE = np.array([[0, 1, 2], [0, 1, 3], [5, 6, 7]], dtype=np.int64)
COINS = bytes.fromhex("41da594bb0b2e43f647efc3f87abd53fd69e2720b41bec3f")
NORMALS = bytes.fromhex("0f9de6573c95ed3fce834e2781c7fabf34d176f124cbd5bf")


def test_derive_seed_golden_value():
    assert derive_seed(7, FACE_COIN_STREAM, 2) == 0xB865F0DA8327C6DD


def test_uniform_coins_golden_values_per_row():
    seed = derive_seed(7, FACE_COIN_STREAM, 2)
    coins = uniform_coins(seed, TABLE)
    assert coins.tobytes() == COINS
    assert coins.tolist() == [0.6468125793169933, 0.3385942578188177, 0.8783817890188981]
    # a coin is a function of its row's values, not of the row's position
    for rows in ([2, 0, 1], [1], [2, 0]):
        assert uniform_coins(seed, TABLE[rows]).tobytes() == coins[rows].tobytes()


def test_standard_normals_golden_values():
    normals = standard_normals(generator(4), 3)
    assert normals.tobytes() == NORMALS
    assert normals.tolist() == [0.9244672505200543, -1.6737071547906797, -0.3405239446685926]

"""A seeded differential of ``SolveResult.from_json`` over edited tables.

Small exports (the demo and ``random_instance`` seeds 1-3 at 1.1x their
floor, both conventions, pruned and not) get 1,500 random edits: fields
dropped or replaced; cells set to null, booleans, huge ints, infinities,
NaN, 1e308, strings or lists; set members replaced, added, dropped or
reordered; records listed again, replaced, dropped or reordered; and the
tables replaced whole. The loader must accept exactly the cases pinned
below, with the rows pinned by their digest, and reject every other case
with a ValueError."""

import json
import math
import random
from hashlib import sha256

from ugs_pursuit import SolveResult, demo_bundle, euclidean_metric, solve
from ugs_pursuit.fixtures import random_instance, speed_floor

# values an edit puts in place of a field, a cell, a set member, a record or the tables
ODD = [None, True, False, 0, 1, 3, -1, 2.5, -0.0, 10 ** 400, -10 ** 400, math.inf, -math.inf,
       math.nan, 1e308, "1", "x", [], [1], [[1]], {}, {"set": [1]}]
FIELDS = ("set", "D", "mu", "capture")

# the cases the loader accepted before its checks were rewritten as one rule each, and the
# digest of (case, n, m, convention, pruned, metric digest, rows) over them, in case order
ACCEPTED = [
    3, 8, 13, 15, 19, 23, 24, 26, 29, 33, 34, 36, 40, 41, 47, 49, 55, 59, 65, 68, 69, 76, 80, 82,
    88, 89, 96, 97, 101, 103, 108, 114, 122, 127, 129, 140, 143, 146, 148, 149, 150, 160, 171,
    181, 183, 185, 189, 193, 194, 198, 205, 207, 208, 213, 217, 221, 223, 224, 225, 229, 232, 234,
    235, 236, 237, 238, 242, 245, 248, 250, 253, 254, 260, 263, 276, 278, 281, 291, 294, 295, 300,
    302, 305, 308, 311, 312, 313, 314, 316, 322, 323, 325, 326, 327, 335, 339, 343, 349, 350, 359,
    370, 375, 376, 383, 384, 388, 392, 395, 400, 403, 411, 420, 431, 444, 446, 447, 451, 456, 458,
    460, 465, 469, 471, 472, 477, 478, 479, 482, 483, 490, 491, 496, 502, 504, 509, 510, 517, 522,
    526, 537, 547, 550, 553, 555, 558, 561, 565, 567, 580, 581, 583, 587, 589, 595, 597, 600, 607,
    610, 625, 633, 637, 651, 655, 656, 658, 659, 660, 661, 663, 664, 670, 673, 682, 683, 687, 694,
    703, 706, 717, 723, 725, 728, 736, 740, 741, 749, 750, 758, 759, 763, 769, 773, 774, 784, 790,
    792, 793, 794, 796, 797, 799, 800, 801, 809, 812, 821, 823, 834, 837, 839, 843, 848, 850, 857,
    861, 867, 877, 886, 887, 889, 895, 896, 899, 900, 905, 907, 908, 909, 914, 918, 927, 933, 934,
    938, 949, 950, 960, 989, 1000, 1009, 1015, 1022, 1023, 1025, 1027, 1038, 1042, 1045, 1048,
    1054, 1058, 1066, 1069, 1075, 1077, 1081, 1084, 1086, 1088, 1100, 1112, 1113, 1122, 1126,
    1130, 1134, 1140, 1145, 1152, 1157, 1164, 1172, 1182, 1197, 1201, 1204, 1206, 1208, 1211,
    1215, 1217, 1220, 1225, 1233, 1235, 1236, 1240, 1242, 1254, 1265, 1268, 1269, 1292, 1301,
    1314, 1317, 1319, 1320, 1325, 1329, 1345, 1347, 1349, 1353, 1360, 1365, 1368, 1377, 1386,
    1387, 1394, 1395, 1402, 1414, 1415, 1418, 1423, 1430, 1433, 1436, 1439, 1443, 1444, 1452,
    1456, 1473, 1478, 1479, 1487, 1492, 1497,
]
ROWS_DIGEST = "fce7ce6745b44f7b08a92f68ca838b9c34b3d1ad7487d617caef9b112321d089"


def exports():
    """The JSON text of each small export."""
    for network, paths, schedule in [demo_bundle(), *map(random_instance, (1, 2, 3))]:
        metric = euclidean_metric(network, 1.1 * speed_floor(network))
        for strict in (False, True):
            for prune in (True, False):
                yield json.dumps(solve(network, schedule, metric, paths, prune=prune,
                                       strict_resolution=strict).to_json())


def edit(rng, data):
    """``data`` with one random edit, made in place unless it replaces the
    tables whole."""
    records = data["sets"]
    record = rng.choice(records)
    kind = rng.randrange(9)
    if kind == 0:  # drop or replace a field of the tables, of meta or of a record
        where = rng.choice([data, data["meta"], record])
        name = rng.choice(sorted(where))
        if rng.random() < 0.5:
            del where[name]
        else:
            where[name] = rng.choice(ODD)
    elif kind == 1:  # replace the tables whole
        return rng.choice(ODD)
    elif kind == 2:  # a cell: odd, or a value of one of the three kinds
        column = record[rng.choice(FIELDS[1:])]
        j = rng.randrange(len(column))
        column[j] = rng.choice(
            ODD + [rng.uniform(-5, 20), rng.randrange(1, len(column) + 1), rng.random() < 0.5])
    elif kind == 3:  # a set member: odd, or a path index in or out of range
        listed = record["set"]
        listed[rng.randrange(len(listed))] = rng.choice(ODD + [rng.randrange(0, 8)])
    elif kind == 4:  # a set gains, loses or reorders members
        listed = record["set"]
        choice = rng.randrange(3)
        if choice == 0:
            listed.append(rng.randrange(1, 6))
        elif choice == 1:
            listed.pop()
        else:
            rng.shuffle(listed)
    elif kind == 5:  # a record listed again, or a field taken from another record
        other = rng.choice(records)
        if rng.random() < 0.5:
            records.insert(rng.randrange(len(records) + 1), json.loads(json.dumps(other)))
        else:
            name = rng.choice(FIELDS)
            record[name] = json.loads(json.dumps(other[name]))
    elif kind == 6:  # a record replaced by an odd value, or dropped
        i = rng.randrange(len(records))
        if rng.random() < 0.5:
            records[i] = rng.choice(ODD)
        else:
            del records[i]
    elif kind == 7:  # the records reordered
        rng.shuffle(records)
    else:  # a column one value shorter or longer
        column = record[rng.choice(FIELDS[1:])]
        if rng.random() < 0.5:
            column.pop()
        else:
            column.append(column[0])
    return data


def cases(count=1500, seed=37):
    """``(i, tables)`` for each case: an export read afresh, given one or
    two edits."""
    rng = random.Random(seed)
    texts = [*exports()]
    for i in range(count):
        data = json.loads(rng.choice(texts))
        for _ in range(rng.choice((1, 1, 2))):
            try:  # the second edit may meet the first one's damage
                data = edit(rng, data)
            except (KeyError, TypeError, IndexError, AttributeError, ValueError):
                break
        yield i, data


def test_edited_tables_accepted_as_pinned_and_otherwise_rejected():
    accepted, digest, escaped = [], sha256(), []
    for i, data in cases():
        try:
            loaded = SolveResult.from_json(data)
        except ValueError:
            continue
        except Exception as exc:  # any other error is a fault
            escaped.append((i, repr(exc)))
            continue
        accepted.append(i)
        digest.update(repr((i, loaded.n, loaded.m, loaded.strict_resolution, loaded.pruned,
                            loaded.metric_digest, [*loaded.rows.items()])).encode())
    assert escaped == []
    assert accepted == ACCEPTED
    assert digest.hexdigest() == ROWS_DIGEST

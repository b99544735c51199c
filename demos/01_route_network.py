"""
Build the Bay Area vertiport network
====================================

Four airports, great-circle legs, and the range check that decides
which pairs an eVTOL can fly nonstop.
"""

from uamsim import GeoNode, VehicleSpec, build_network

nodes = [
    GeoNode(0, "SFO", 37.6190, -122.3750),
    GeoNode(1, "OAK", 37.7213, -122.2210),
    GeoNode(2, "SJC", 37.3623, -121.9290),
    GeoNode(3, "PAO", 37.4611, -122.1150),
]
spec = VehicleSpec()  # 150 mph cruise, 60 mi range, 4 seats

net = build_network(nodes, spec)

print("pair distances (mi) and flight times (min):")
for i in range(net.n):
    for j in range(i + 1, net.n):
        print(
            f"  {net.codes[i]}-{net.codes[j]}: "
            f"{net.dist[i, j]:6.2f} mi, {net.air_time[i, j]:5.2f} min"
        )

# every leg fits inside the 60-mile envelope, so no pair needs an
# intermediate charging stop
print("\nfeasible ordered pairs:", int(net.feasible.sum()), "of", net.n * (net.n - 1))

# shrink the range and the long SFO/OAK <-> SJC legs drop out
short = VehicleSpec(max_range_mi=20.0)
print("feasible with a 20-mile range:", int(build_network(nodes, short).feasible.sum()))
